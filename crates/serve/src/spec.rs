//! Job requests: what a tenant asks the server to solve.
//!
//! A [`JobSpec`] names a [`ProblemSpec`] (a deterministic recipe for MO
//! integrals — the server never receives raw tensors over the wire), a
//! spin/symmetry sector, and solver knobs. Every piece of shared state a
//! job needs is identified by a content hash derived from the spec, so
//! two jobs that describe the same integrals or the same determinant
//! space agree on a cache key without ever comparing tensors.

use fci_core::{DiagMethod, FciOptions, SolverKind};
use fci_ddi::{FaultConfig, RankDeath};
use fci_ints::EriTensor;
use fci_linalg::Matrix;
use fci_obs::{fnv1a, JsonValue};
use fci_scf::MoIntegrals;

/// Deterministic recipe for a problem's MO integrals.
///
/// Model problems rather than raw tensors keep job requests small,
/// human-writable, and — crucially for the artifact cache — content
/// addressable: the hash of the recipe is the hash of the integrals.
#[derive(Clone, Debug, PartialEq)]
pub enum ProblemSpec {
    /// 1-D Hubbard chain: hopping `t`, on-site repulsion `u`, optionally
    /// periodic. The workhorse of the test fixtures.
    Hubbard {
        /// Number of lattice sites (= orbitals).
        sites: usize,
        /// Hopping amplitude.
        t: f64,
        /// On-site repulsion.
        u: f64,
        /// Wrap the chain into a ring.
        periodic: bool,
    },
    /// Seeded dense random integrals (symmetric `h`, 8-fold symmetric
    /// ERI): cheap distinct-molecule stand-ins for cache-miss testing.
    Random {
        /// Number of orbitals.
        n_orb: usize,
        /// Seed for the integral stream.
        seed: u64,
    },
}

fn hash_mix(h: &mut Vec<u8>, x: u64) {
    h.extend_from_slice(&x.to_le_bytes());
}

impl ProblemSpec {
    /// Content hash of the integrals this recipe produces. Two specs
    /// with the same hash build byte-identical [`MoIntegrals`].
    pub fn content_hash(&self) -> u64 {
        let mut buf = Vec::new();
        match self {
            ProblemSpec::Hubbard {
                sites,
                t,
                u,
                periodic,
            } => {
                hash_mix(&mut buf, 1);
                hash_mix(&mut buf, *sites as u64);
                hash_mix(&mut buf, t.to_bits());
                hash_mix(&mut buf, u.to_bits());
                hash_mix(&mut buf, *periodic as u64);
            }
            ProblemSpec::Random { n_orb, seed } => {
                hash_mix(&mut buf, 2);
                hash_mix(&mut buf, *n_orb as u64);
                hash_mix(&mut buf, *seed);
            }
        }
        fnv1a(&buf)
    }

    /// Number of orbitals the recipe produces.
    pub fn n_orb(&self) -> usize {
        match self {
            ProblemSpec::Hubbard { sites, .. } => *sites,
            ProblemSpec::Random { n_orb, .. } => *n_orb,
        }
    }

    /// Build the MO integrals. Deterministic: same spec → bitwise-same
    /// tensors, on any thread, at any time.
    pub fn build(&self) -> MoIntegrals {
        match self {
            ProblemSpec::Hubbard {
                sites,
                t,
                u,
                periodic,
            } => MoIntegrals::hubbard_chain(*sites, *t, *u, *periodic),
            ProblemSpec::Random { n_orb, seed } => {
                let n = *n_orb;
                // splitmix64: tiny, seedable, and identical everywhere.
                let mut state = *seed;
                let mut next = move || {
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    z = z ^ (z >> 31);
                    (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                };
                let mut h = Matrix::zeros(n, n);
                for p in 0..n {
                    for q in 0..=p {
                        let v = if p == q { -1.0 + next() } else { 0.1 * next() };
                        h[(p, q)] = v;
                        h[(q, p)] = v;
                    }
                }
                let mut eri = EriTensor::zeros(n);
                // Walk the canonical 8-fold-unique index set only, so the
                // value stream is independent of iteration redundancy.
                for p in 0..n {
                    for q in 0..=p {
                        for r in 0..=p {
                            let s_max = if r == p { q } else { r };
                            for s in 0..=s_max {
                                let diag = p == q && r == s && p == r;
                                let v = if diag {
                                    0.5 + 0.1 * next()
                                } else {
                                    0.05 * next()
                                };
                                eri.set(p, q, r, s, v);
                            }
                        }
                    }
                }
                MoIntegrals {
                    n_orb: n,
                    h,
                    eri,
                    e_core: 0.0,
                    orb_sym: vec![0; n],
                    n_irrep: 1,
                }
            }
        }
    }

    fn to_json(&self) -> JsonValue {
        match self {
            ProblemSpec::Hubbard {
                sites,
                t,
                u,
                periodic,
            } => JsonValue::obj(vec![
                ("kind", JsonValue::Str("hubbard".into())),
                ("sites", JsonValue::Num(*sites as f64)),
                ("t", JsonValue::Num(*t)),
                ("u", JsonValue::Num(*u)),
                ("periodic", JsonValue::Bool(*periodic)),
            ]),
            ProblemSpec::Random { n_orb, seed } => JsonValue::obj(vec![
                ("kind", JsonValue::Str("random".into())),
                ("n_orb", JsonValue::Num(*n_orb as f64)),
                ("seed", JsonValue::Num(*seed as f64)),
            ]),
        }
    }

    fn from_json(v: &JsonValue) -> Result<ProblemSpec, String> {
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("problem needs a string `kind`")?;
        match kind {
            "hubbard" => Ok(ProblemSpec::Hubbard {
                sites: v.get_f64("sites").ok_or("hubbard needs `sites`")? as usize,
                t: v.get_f64("t").unwrap_or(1.0),
                u: v.get_f64("u").unwrap_or(4.0),
                periodic: matches!(v.get("periodic"), Some(JsonValue::Bool(true))),
            }),
            "random" => Ok(ProblemSpec::Random {
                n_orb: v.get_f64("n_orb").ok_or("random needs `n_orb`")? as usize,
                seed: v.get_f64("seed").unwrap_or(1.0) as u64,
            }),
            other => Err(format!("unknown problem kind `{other}`")),
        }
    }
}

/// One job request.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Unique job id (also the checkpoint namespace for resilient jobs).
    pub id: String,
    /// Tenant the job is billed to; fairness interleaves across tenants.
    pub tenant: String,
    /// Higher runs first (within the fairness discipline).
    pub priority: i64,
    /// Integral recipe.
    pub problem: ProblemSpec,
    /// α electrons.
    pub n_alpha: usize,
    /// β electrons.
    pub n_beta: usize,
    /// Target spatial irrep.
    pub target_irrep: u8,
    /// CI truncation (`None` = full CI).
    pub excitation_level: Option<u32>,
    /// Which eigenstate the tenant wants (0 = ground). Roots above 0
    /// require a batchable Davidson job.
    pub root: usize,
    /// Eigensolver for unbatched execution.
    pub method: DiagMethod,
    /// Engine choice: the dense DGEMM solver or one of the sparse
    /// engines (`fci-sparse`). Sparse jobs are never batched.
    pub solver: SolverKind,
    /// Selection threshold ε for the selected-CI engine (ignored by the
    /// others).
    pub eps: f64,
    /// Determinant-store cap for the sparse engines — the admission
    /// control memory bound (ignored by the dense engine).
    pub sparse_cap: usize,
    /// Virtual MSP count for the solve.
    pub nproc: usize,
    /// σ-evaluation cap.
    pub max_iter: usize,
    /// Residual convergence threshold.
    pub tol: f64,
    /// Allow coalescing with same-space jobs into one multi-root solve.
    pub batchable: bool,
    /// Run through the checkpointed `solve_resilient` path.
    pub resilient: bool,
    /// Attach a seeded fault plan.
    pub fault_seed: Option<u64>,
    /// Permanent rank death (resilient jobs only).
    pub rank_death: Option<RankDeath>,
}

impl JobSpec {
    /// A plain ground-state job with default solver knobs.
    pub fn new(id: impl Into<String>, problem: ProblemSpec, n_alpha: usize, n_beta: usize) -> Self {
        JobSpec {
            id: id.into(),
            tenant: "default".into(),
            priority: 0,
            problem,
            n_alpha,
            n_beta,
            target_irrep: 0,
            excitation_level: None,
            root: 0,
            method: DiagMethod::Davidson,
            solver: SolverKind::Dense,
            eps: 1e-6,
            sparse_cap: 2_000_000,
            nproc: 1,
            max_iter: 60,
            tol: 1e-9,
            batchable: true,
            resilient: false,
            fault_seed: None,
            rank_death: None,
        }
    }

    /// Content hash of the determinant space this job solves in.
    ///
    /// Full-CI spaces depend only on the orbital count, symmetry
    /// labelling, and sector, so C1 jobs over *different* molecules of
    /// the same size share one space. Truncated spaces additionally
    /// depend on the Hamiltonian (the reference determinant is the
    /// lowest-diagonal one), so the problem hash joins the key.
    pub fn space_hash(&self) -> u64 {
        let mo_dependent = self.excitation_level.is_some();
        let mut buf = Vec::new();
        hash_mix(&mut buf, self.problem.n_orb() as u64);
        hash_mix(&mut buf, self.n_alpha as u64);
        hash_mix(&mut buf, self.n_beta as u64);
        hash_mix(&mut buf, self.target_irrep as u64);
        match self.excitation_level {
            None => hash_mix(&mut buf, u64::MAX),
            Some(l) => hash_mix(&mut buf, l as u64),
        }
        // orb_sym/n_irrep come from the recipe; both model families are
        // C1 today, but hash them anyway so symmetry-aware recipes can't
        // alias.
        for &s in &self.problem.build_sym() {
            buf.push(s);
        }
        if mo_dependent {
            hash_mix(&mut buf, self.problem.content_hash());
        }
        fnv1a(&buf)
    }

    /// Hash identifying the batch a job may join: same integrals, same
    /// sector, same solver shape. Jobs agreeing on this key can be
    /// answered by a single block-Davidson multi-root solve.
    pub fn batch_hash(&self) -> u64 {
        let mut buf = Vec::new();
        hash_mix(&mut buf, self.problem.content_hash());
        hash_mix(&mut buf, self.space_hash());
        hash_mix(&mut buf, self.nproc as u64);
        hash_mix(&mut buf, self.max_iter as u64);
        hash_mix(&mut buf, self.tol.to_bits());
        fnv1a(&buf)
    }

    /// Whether the batching coalescer may take this job: it must opt in,
    /// use the subspace method (single-vector schemes have no multi-root
    /// form), and carry no fault plan (fault streams are per-solve, so
    /// sharing one solve would change injection points).
    pub fn may_batch(&self) -> bool {
        self.batchable
            && self.solver == SolverKind::Dense
            && self.method == DiagMethod::Davidson
            && !self.resilient
            && self.fault_seed.is_none()
    }

    /// Solver options for an unbatched run of this job.
    pub fn fci_options(&self) -> FciOptions {
        let mut opts = FciOptions {
            method: self.method,
            nproc: self.nproc,
            excitation_level: self.excitation_level,
            ..FciOptions::default()
        };
        opts.diag.max_iter = self.max_iter;
        opts.diag.tol = self.tol;
        if let Some(seed) = self.fault_seed {
            let mut fc = FaultConfig::quiet(seed);
            fc.rank_death = self.rank_death;
            opts.fault = Some(fc);
        }
        opts
    }

    /// Serialize to the wire format (one JSONL object).
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("id", JsonValue::Str(self.id.clone())),
            ("tenant", JsonValue::Str(self.tenant.clone())),
            ("priority", JsonValue::Num(self.priority as f64)),
            ("problem", self.problem.to_json()),
            ("na", JsonValue::Num(self.n_alpha as f64)),
            ("nb", JsonValue::Num(self.n_beta as f64)),
            ("irrep", JsonValue::Num(self.target_irrep as f64)),
            ("root", JsonValue::Num(self.root as f64)),
            ("method", JsonValue::Str(method_name(self.method).into())),
            ("solver", JsonValue::Str(self.solver.name().into())),
            ("eps", JsonValue::Num(self.eps)),
            ("sparse_cap", JsonValue::Num(self.sparse_cap as f64)),
            ("nproc", JsonValue::Num(self.nproc as f64)),
            ("max_iter", JsonValue::Num(self.max_iter as f64)),
            ("tol", JsonValue::Num(self.tol)),
            ("batchable", JsonValue::Bool(self.batchable)),
            ("resilient", JsonValue::Bool(self.resilient)),
        ];
        if let Some(l) = self.excitation_level {
            pairs.push(("excitation_level", JsonValue::Num(l as f64)));
        }
        if let Some(s) = self.fault_seed {
            pairs.push(("fault_seed", JsonValue::Num(s as f64)));
        }
        if let Some(rd) = &self.rank_death {
            pairs.push((
                "rank_death",
                JsonValue::obj(vec![
                    ("rank", JsonValue::Num(rd.rank as f64)),
                    ("after_ops", JsonValue::Num(rd.after_ops as f64)),
                ]),
            ));
        }
        JsonValue::obj(pairs)
    }

    /// Parse one JSONL job object.
    pub fn from_json(v: &JsonValue) -> Result<JobSpec, String> {
        let id = v
            .get("id")
            .and_then(JsonValue::as_str)
            .ok_or("job needs a string `id`")?
            .to_string();
        let problem = ProblemSpec::from_json(v.get("problem").ok_or("job needs a `problem`")?)?;
        let mut job = JobSpec::new(
            id,
            problem,
            v.get_f64("na").ok_or("job needs `na`")? as usize,
            v.get_f64("nb").ok_or("job needs `nb`")? as usize,
        );
        if let Some(t) = v.get("tenant").and_then(JsonValue::as_str) {
            job.tenant = t.to_string();
        }
        if let Some(p) = v.get_f64("priority") {
            job.priority = p as i64;
        }
        if let Some(i) = v.get_f64("irrep") {
            job.target_irrep = i as u8;
        }
        if let Some(l) = v.get_f64("excitation_level") {
            job.excitation_level = Some(l as u32);
        }
        if let Some(r) = v.get_f64("root") {
            job.root = r as usize;
        }
        if let Some(m) = v.get("method").and_then(JsonValue::as_str) {
            job.method = method_from_name(m)?;
        }
        // Absent on pre-sparse wire/WAL records: default to the dense
        // engine so old logs replay unchanged.
        if let Some(s) = v.get("solver").and_then(JsonValue::as_str) {
            job.solver = SolverKind::from_name(s).ok_or_else(|| format!("unknown solver `{s}`"))?;
        }
        if let Some(e) = v.get_f64("eps") {
            job.eps = e;
        }
        if let Some(c) = v.get_f64("sparse_cap") {
            job.sparse_cap = c as usize;
        }
        if let Some(n) = v.get_f64("nproc") {
            job.nproc = n as usize;
        }
        if let Some(n) = v.get_f64("max_iter") {
            job.max_iter = n as usize;
        }
        if let Some(t) = v.get_f64("tol") {
            job.tol = t;
        }
        if let Some(JsonValue::Bool(b)) = v.get("batchable") {
            job.batchable = *b;
        }
        if let Some(JsonValue::Bool(b)) = v.get("resilient") {
            job.resilient = *b;
        }
        if let Some(s) = v.get_f64("fault_seed") {
            job.fault_seed = Some(s as u64);
        }
        if let Some(rd) = v.get("rank_death") {
            job.rank_death = Some(RankDeath {
                rank: rd.get_f64("rank").ok_or("rank_death needs `rank`")? as usize,
                after_ops: rd
                    .get_f64("after_ops")
                    .ok_or("rank_death needs `after_ops`")? as u64,
            });
        }
        // Selected CI computes excited roots natively; other unbatched
        // paths cannot.
        if job.root > 0 && !job.may_batch() && job.solver != SolverKind::SparseSelected {
            return Err(format!(
                "job `{}` wants root {} but is not batchable-Davidson; excited \
                 states need the multi-root path or the selected-CI engine",
                job.id, job.root
            ));
        }
        Ok(job)
    }
}

impl ProblemSpec {
    /// Orbital irrep labels without building the tensors.
    fn build_sym(&self) -> Vec<u8> {
        vec![0; self.n_orb()]
    }
}

fn method_name(m: DiagMethod) -> &'static str {
    match m {
        DiagMethod::Davidson => "davidson",
        DiagMethod::TwoVector => "two_vector",
        DiagMethod::Olsen => "olsen",
        DiagMethod::OlsenDamped => "olsen_damped",
        DiagMethod::AutoAdjust => "auto",
    }
}

fn method_from_name(s: &str) -> Result<DiagMethod, String> {
    match s {
        "davidson" => Ok(DiagMethod::Davidson),
        "two_vector" => Ok(DiagMethod::TwoVector),
        "olsen" => Ok(DiagMethod::Olsen),
        "olsen_damped" => Ok(DiagMethod::OlsenDamped),
        "auto" | "auto_adjust" => Ok(DiagMethod::AutoAdjust),
        other => Err(format!("unknown diag method `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hubbard4() -> ProblemSpec {
        ProblemSpec::Hubbard {
            sites: 4,
            t: 1.0,
            u: 4.0,
            periodic: false,
        }
    }

    #[test]
    fn problem_hash_separates_recipes() {
        let a = hubbard4();
        let b = ProblemSpec::Hubbard {
            sites: 4,
            t: 1.0,
            u: 4.5,
            periodic: false,
        };
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash(), hubbard4().content_hash());
    }

    #[test]
    fn build_is_bitwise_deterministic() {
        let spec = ProblemSpec::Random { n_orb: 4, seed: 17 };
        let (a, b) = (spec.build(), spec.build());
        assert_eq!(a.h.as_slice(), b.h.as_slice());
        for p in 0..4 {
            for q in 0..4 {
                for r in 0..4 {
                    for s in 0..4 {
                        assert_eq!(
                            a.eri.get(p, q, r, s).to_bits(),
                            b.eri.get(p, q, r, s).to_bits()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn random_eri_has_eightfold_symmetry() {
        let mo = ProblemSpec::Random { n_orb: 3, seed: 5 }.build();
        for p in 0..3 {
            for q in 0..3 {
                for r in 0..3 {
                    for s in 0..3 {
                        let v = mo.eri.get(p, q, r, s);
                        assert_eq!(v, mo.eri.get(q, p, r, s));
                        assert_eq!(v, mo.eri.get(p, q, s, r));
                        assert_eq!(v, mo.eri.get(r, s, p, q));
                    }
                }
            }
        }
    }

    #[test]
    fn space_hash_shared_across_same_size_c1_molecules() {
        // Full-CI spaces depend only on size/sector, not the integrals…
        let a = JobSpec::new("a", hubbard4(), 2, 2);
        let b = JobSpec::new("b", ProblemSpec::Random { n_orb: 4, seed: 9 }, 2, 2);
        assert_eq!(a.space_hash(), b.space_hash());
        // …but truncated spaces pick a reference determinant from the
        // diagonal, so the problem joins the key.
        let mut at = a.clone();
        let mut bt = b.clone();
        at.excitation_level = Some(2);
        bt.excitation_level = Some(2);
        assert_ne!(at.space_hash(), bt.space_hash());
        // And different sectors never share.
        let c = JobSpec::new("c", hubbard4(), 3, 1);
        assert_ne!(a.space_hash(), c.space_hash());
    }

    #[test]
    fn jobspec_json_roundtrip() {
        let mut job = JobSpec::new("j-1", hubbard4(), 2, 2);
        job.tenant = "alice".into();
        job.priority = 3;
        job.root = 1;
        job.fault_seed = None;
        let text = job.to_json().to_string();
        let back = JobSpec::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(back.id, "j-1");
        assert_eq!(back.tenant, "alice");
        assert_eq!(back.priority, 3);
        assert_eq!(back.root, 1);
        assert_eq!(back.problem, job.problem);
        assert_eq!(back.batch_hash(), job.batch_hash());
    }

    #[test]
    fn sparse_solver_roundtrips_and_never_batches() {
        let mut job = JobSpec::new("s", hubbard4(), 2, 2);
        job.solver = SolverKind::SparseCdfci;
        job.eps = 3e-5;
        job.sparse_cap = 123_456;
        let back =
            JobSpec::from_json(&JsonValue::parse(&job.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.solver, SolverKind::SparseCdfci);
        assert_eq!(back.eps.to_bits(), job.eps.to_bits());
        assert_eq!(back.sparse_cap, 123_456);
        assert!(!back.may_batch(), "sparse jobs must not coalesce");
        // Pre-sparse records carry no `solver` key: they parse as dense.
        let legacy = JobSpec::new("old", hubbard4(), 2, 2);
        let mut v = legacy.to_json().to_string();
        v = v.replace("\"solver\":\"dense\",", "");
        let old = JobSpec::from_json(&JsonValue::parse(&v).unwrap()).unwrap();
        assert_eq!(old.solver, SolverKind::Dense);
    }

    #[test]
    fn resilient_fault_job_roundtrips_rank_death() {
        let mut job = JobSpec::new("f", hubbard4(), 2, 2);
        job.resilient = true;
        job.fault_seed = Some(11);
        job.rank_death = Some(RankDeath {
            rank: 1,
            after_ops: 300,
        });
        let back =
            JobSpec::from_json(&JsonValue::parse(&job.to_json().to_string()).unwrap()).unwrap();
        assert!(back.resilient);
        assert_eq!(back.fault_seed, Some(11));
        assert_eq!(
            back.rank_death,
            Some(RankDeath {
                rank: 1,
                after_ops: 300
            })
        );
        assert!(!back.may_batch());
    }
}
