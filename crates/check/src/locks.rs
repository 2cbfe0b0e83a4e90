//! Static lock-order / condvar analysis for the serve and obs layers.
//!
//! The serve layer is the one place in the stack where multiple locks
//! coexist (`Server.state`, `Server.results`, `Server.rejected`, the
//! `ArtifactCache` pair, plus the obs-side sink/cursor/shard mutexes its
//! workers touch while holding queue state). This module proves, from
//! tokens alone, that those locks cannot deadlock:
//!
//! 1. **Lock inventory** — every struct field whose type mentions
//!    `Mutex`/`TrackedMutex`/`Condvar`/`TrackedCondvar` (and every
//!    `static` mutex) becomes a lock id `Struct.field`.
//! 2. **Guard scopes** — per fn body, a symbolic walk tracks live
//!    guards: let-bound guards die at end of block, `drop(g)`, or
//!    shadowing; temporary guards (`x.lock().f()`) die at end of
//!    statement. Receivers resolve through field names (disambiguated
//!    by the enclosing `impl` type) and one-level `let` aliases
//!    (`let shard = &self.store.shards[i]; shard.lock()`).
//! 3. **Lock-order graph** — acquiring `B` with `A` held adds edge
//!    `A → B`; calling `f()` with `A` held adds `A → b` for every lock
//!    in `f`'s transitive *may-acquire* set (a fixpoint over the call
//!    names in the scanned set; same-name candidates are unioned, so
//!    the approximation errs toward reporting). Any cycle in the graph
//!    is a potential deadlock and fails the check.
//! 4. **Condvar hazards** — `cv.wait(guard)` releases exactly one
//!    mutex; waiting while a *second* lock is held blocks every other
//!    thread needing it, and a condvar that is waited on but never
//!    notified anywhere in the scanned set parks its waiters forever.
//!
//! Resolution limits are explicit: `.lock()` calls whose receiver
//! cannot be mapped to an inventoried lock are listed in
//! `unresolved_sites` (reported, never silently dropped). Calls through
//! a `fn` pointer or a closure variable are not followed at all, so a
//! lock taken behind one adds no edge. That is the dynamic half's job:
//! [`fci_obs::lockwitness`] edges recorded under a live serve workload
//! are checked against this graph by [`dynamic_cross_check`], and every
//! observed edge must be predicted.

use std::collections::{HashMap, HashSet};
use std::path::Path;

use crate::front::{call_at, collect_rs, items, rel, skip_angles, CallKind, FileCtx, Item};
use crate::graph::STD_METHODS;
use crate::lex::TokKind;
use fci_obs::JsonValue;

/// Directories `fcix-check locks` scans by default (workspace-relative).
pub const DEFAULT_LOCK_PATHS: [&str; 3] =
    ["crates/serve/src", "crates/obs/src", "crates/sparse/src"];

/// What kind of synchronization primitive a field is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    /// `Mutex` / `TrackedMutex`.
    Mutex,
    /// `Condvar` / `TrackedCondvar`.
    Condvar,
}

/// One inventoried lock: a struct field or a `static` mutex.
#[derive(Clone, Debug)]
pub struct LockDecl {
    /// Lock id: `Struct.field`, or the bare name for a `static`.
    pub id: String,
    /// Mutex or condvar.
    pub kind: LockKind,
    /// Workspace-relative file of the declaration.
    pub file: String,
    /// 1-based line of the declaration.
    pub line: u32,
}

/// One lock-order edge: `to` acquired (or acquirable) while `from` held.
#[derive(Clone, Debug)]
pub struct LockEdge {
    /// Held lock.
    pub from: String,
    /// Acquired lock.
    pub to: String,
    /// File of the acquisition (or call) site.
    pub file: String,
    /// 1-based line of the site.
    pub line: u32,
    /// For interprocedural edges, the callee whose may-acquire set
    /// contributed `to`.
    pub via: Option<String>,
}

/// A condvar misuse pattern.
#[derive(Clone, Debug)]
pub enum CondvarHazard {
    /// `cv.wait(g)` releases only `g`'s mutex; these other locks stay
    /// held across the park.
    WaitWhileHolding {
        /// The condvar waited on.
        condvar: String,
        /// The mutex the wait releases (when the guard resolved).
        released: Option<String>,
        /// Locks still held across the wait.
        held: Vec<String>,
        /// Site file.
        file: String,
        /// Site line.
        line: u32,
    },
    /// The condvar is waited on but no `notify_one`/`notify_all` site
    /// exists anywhere in the scanned set.
    NeverNotified {
        /// The condvar.
        condvar: String,
        /// A wait site file.
        file: String,
        /// A wait site line.
        line: u32,
    },
}

impl CondvarHazard {
    fn describe(&self) -> String {
        match self {
            CondvarHazard::WaitWhileHolding {
                condvar,
                released,
                held,
                file,
                line,
            } => format!(
                "{file}:{line}: wait on {condvar} (releases {}) while still holding [{}]",
                released.as_deref().unwrap_or("?"),
                held.join(", ")
            ),
            CondvarHazard::NeverNotified {
                condvar,
                file,
                line,
            } => format!("{file}:{line}: {condvar} is waited on but never notified"),
        }
    }
}

/// Result of the static analysis.
#[derive(Debug, Default)]
pub struct LockReport {
    /// Inventoried locks.
    pub locks: Vec<LockDecl>,
    /// Lock-order edges (deduplicated by `(from, to, via)`).
    pub edges: Vec<LockEdge>,
    /// Deadlock cycles (each a lock-id sequence; first entry repeats
    /// implicitly).
    pub cycles: Vec<Vec<String>>,
    /// Condvar hazards.
    pub hazards: Vec<CondvarHazard>,
    /// `(file, line)` of `.lock()`/`.wait()` sites whose receiver could
    /// not be mapped to an inventoried lock.
    pub unresolved_sites: Vec<(String, u32)>,
}

impl LockReport {
    /// No deadlock cycles and no condvar hazards.
    pub fn is_clean(&self) -> bool {
        self.cycles.is_empty() && self.hazards.is_empty()
    }

    /// JSON form used by `fcix-check locks --format json`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("tool", JsonValue::Str("fcix-check locks".into())),
            (
                "locks",
                JsonValue::Arr(
                    self.locks
                        .iter()
                        .map(|l| {
                            JsonValue::obj(vec![
                                ("id", JsonValue::Str(l.id.clone())),
                                (
                                    "kind",
                                    JsonValue::Str(
                                        match l.kind {
                                            LockKind::Mutex => "mutex",
                                            LockKind::Condvar => "condvar",
                                        }
                                        .into(),
                                    ),
                                ),
                                ("file", JsonValue::Str(l.file.clone())),
                                ("line", JsonValue::Num(l.line as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "edges",
                JsonValue::Arr(
                    self.edges
                        .iter()
                        .map(|e| {
                            JsonValue::obj(vec![
                                ("from", JsonValue::Str(e.from.clone())),
                                ("to", JsonValue::Str(e.to.clone())),
                                ("file", JsonValue::Str(e.file.clone())),
                                ("line", JsonValue::Num(e.line as f64)),
                                (
                                    "via",
                                    match &e.via {
                                        Some(v) => JsonValue::Str(v.clone()),
                                        None => JsonValue::Null,
                                    },
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "cycles",
                JsonValue::Arr(
                    self.cycles
                        .iter()
                        .map(|c| {
                            JsonValue::Arr(c.iter().map(|n| JsonValue::Str(n.clone())).collect())
                        })
                        .collect(),
                ),
            ),
            (
                "hazards",
                JsonValue::Arr(
                    self.hazards
                        .iter()
                        .map(|h| JsonValue::Str(h.describe()))
                        .collect(),
                ),
            ),
            (
                "unresolved_sites",
                JsonValue::Arr(
                    self.unresolved_sites
                        .iter()
                        .map(|(file, line)| {
                            JsonValue::obj(vec![
                                ("file", JsonValue::Str(file.clone())),
                                ("line", JsonValue::Num(*line as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("clean", JsonValue::Bool(self.is_clean())),
        ])
    }

    /// Human-readable rendering for `fcix-check locks`.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "fcix-check locks: {} locks, {} order edges, {} unresolved sites\n",
            self.locks.len(),
            self.edges.len(),
            self.unresolved_sites.len()
        ));
        for e in &self.edges {
            s.push_str(&format!(
                "  {} -> {} at {}:{}{}\n",
                e.from,
                e.to,
                e.file,
                e.line,
                match &e.via {
                    Some(v) => format!(" (via {v})"),
                    None => String::new(),
                }
            ));
        }
        for c in &self.cycles {
            s.push_str(&format!(
                "  DEADLOCK CYCLE: {} -> {}\n",
                c.join(" -> "),
                c[0]
            ));
        }
        for h in &self.hazards {
            s.push_str(&format!("  CONDVAR HAZARD: {}\n", h.describe()));
        }
        for (file, line) in &self.unresolved_sites {
            s.push_str(&format!("  unresolved receiver at {file}:{line}\n"));
        }
        s
    }
}

/// A live guard during the symbolic body walk.
struct Guard {
    lock: String,
    binding: Option<String>,
    /// Brace depth the guard was bound at; dies when the block closes.
    depth: i64,
    /// `drop(g)` seen at this (deeper) depth: the drop is *conditional*
    /// on the enclosing branch, so the guard is only suppressed until
    /// that block closes, then resurrected (over-holding can only add
    /// edges — the approximation errs toward reporting). A drop at the
    /// binding depth retires the guard outright.
    dropped_at: Option<i64>,
    /// For temporaries: code-index one past the owning statement.
    temp_end: Option<usize>,
}

/// A callee as written: its name and, for a `Type::name(…)` path call,
/// the type. A typed callee resolves only to `name` in an `impl Type`
/// block, so `Box::new` or `Vec::new` is no call to a workspace `new`;
/// an untyped one (bare, method or module-path call) resolves to every
/// fn of its name.
struct Callee {
    name: String,
    ty: Option<String>,
}

impl Callee {
    fn resolves_to(&self, f: &FnScan) -> bool {
        f.name == self.name && (self.ty.is_none() || f.impl_type == self.ty)
    }
}

/// Per-fn scan product.
struct FnScan {
    name: String,
    impl_type: Option<String>,
    file: String,
    direct: HashSet<String>,
    /// Every callee in the body (for may-acquire propagation).
    all_calls: Vec<Callee>,
    /// `(held locks, callee, line)` — call sites under a lock.
    holds_at_call: Vec<(Vec<String>, Callee, u32)>,
}

/// Whole-scan accumulator.
#[derive(Default)]
struct Scan {
    locks: Vec<LockDecl>,
    edges: Vec<LockEdge>,
    hazards: Vec<CondvarHazard>,
    unresolved: Vec<(String, u32)>,
    fns: Vec<FnScan>,
    /// Condvars with at least one wait site: id → first site.
    waited: HashMap<String, (String, u32)>,
    notified: HashSet<String>,
}

impl Scan {
    fn lock_kind(&self, id: &str) -> Option<LockKind> {
        self.locks.iter().find(|l| l.id == id).map(|l| l.kind)
    }

    /// Resolve a field name to a lock id: unique across the inventory,
    /// or disambiguated by the enclosing impl type.
    fn resolve_field(&self, field: &str, impl_type: Option<&str>) -> Option<String> {
        let cands: Vec<&LockDecl> = self
            .locks
            .iter()
            .filter(|l| l.id.split('.').nth(1) == Some(field))
            .collect();
        match cands.len() {
            0 => None,
            1 => Some(cands[0].id.clone()),
            _ => impl_type.and_then(|t| {
                let prefix = format!("{t}.");
                let hits: Vec<&&LockDecl> =
                    cands.iter().filter(|l| l.id.starts_with(&prefix)).collect();
                if hits.len() == 1 {
                    Some(hits[0].id.clone())
                } else {
                    None
                }
            }),
        }
    }

    fn is_static_lock(&self, name: &str) -> bool {
        self.locks
            .iter()
            .any(|l| l.id == name && !l.id.contains('.'))
    }
}

/// Pass 1 over one file: inventory struct lock fields and static locks.
fn inventory_locks(ctx: &FileCtx, items: &[Item], relpath: &str, scan: &mut Scan) {
    let n = ctx.code.len();
    for item in items {
        match item.kind {
            "struct" => {
                // Find the `{` opening the field block (skip generics; a
                // `;` or `(` first means no named fields).
                let mut j = item.at + 1;
                while j < n && !matches!(ctx.ctext(j), "{" | ";" | "(") {
                    if ctx.ctext(j) == "<" {
                        j = skip_angles(ctx, j);
                    } else {
                        j += 1;
                    }
                }
                if j >= n || ctx.ctext(j) != "{" {
                    continue;
                }
                // Walk fields: segments split at `,` with all depths flat.
                let mut k = j + 1;
                let (mut brace, mut paren, mut angle) = (0i64, 0i64, 0i64);
                let mut seg: Vec<usize> = Vec::new();
                while k < n {
                    let t = ctx.ctext(k);
                    match t {
                        "{" => brace += 1,
                        "}" => {
                            if brace == 0 {
                                break;
                            }
                            brace -= 1;
                        }
                        "(" => paren += 1,
                        ")" => paren -= 1,
                        "<" => angle += 1,
                        ">" if k > 0 && ctx.ctext(k - 1) != "-" => angle -= 1,
                        _ => {}
                    }
                    if t == "," && brace == 0 && paren == 0 && angle <= 0 {
                        field_from_segment(ctx, &seg, &item.name, relpath, scan);
                        seg.clear();
                        angle = 0;
                    } else {
                        seg.push(k);
                    }
                    k += 1;
                }
                field_from_segment(ctx, &seg, &item.name, relpath, scan);
            }
            // `static NAME: …Mutex…` (and lazy wrappers around one).
            "static" if ctx.ctext(item.at + 1) == ":" => {
                let mut kind = None;
                let mut k = item.at + 2;
                while k < n && !matches!(ctx.ctext(k), "=" | ";") {
                    match ctx.ctext(k) {
                        "Mutex" | "TrackedMutex" => kind = Some(LockKind::Mutex),
                        "Condvar" | "TrackedCondvar" => kind = Some(LockKind::Condvar),
                        _ => {}
                    }
                    k += 1;
                }
                if let Some(kind) = kind {
                    scan.locks.push(LockDecl {
                        id: item.name.clone(),
                        kind,
                        file: relpath.to_string(),
                        line: ctx.ctok(item.kw).line,
                    });
                }
            }
            _ => {}
        }
    }
}

/// One struct-field segment: `pub? name : Type…` → inventory if the
/// type mentions a lock primitive.
fn field_from_segment(ctx: &FileCtx, seg: &[usize], sname: &str, relpath: &str, scan: &mut Scan) {
    let mut it = seg.iter().copied().peekable();
    // Skip visibility: `pub`, `pub(crate)`, `pub(super)`, …
    if it.peek().is_some_and(|&i| ctx.ctext(i) == "pub") {
        it.next();
        if it.peek().is_some_and(|&i| ctx.ctext(i) == "(") {
            for i in it.by_ref() {
                if ctx.ctext(i) == ")" {
                    break;
                }
            }
        }
    }
    let Some(name_i) = it.next() else { return };
    if ctx.ctok(name_i).kind != TokKind::Ident {
        return;
    }
    if it.next().is_none_or(|i| ctx.ctext(i) != ":") {
        return;
    }
    let mut kind = None;
    for i in it {
        match ctx.ctext(i) {
            "Mutex" | "TrackedMutex" => kind = Some(LockKind::Mutex),
            "Condvar" | "TrackedCondvar" => kind = Some(LockKind::Condvar),
            _ => {}
        }
    }
    if let Some(kind) = kind {
        scan.locks.push(LockDecl {
            id: format!("{sname}.{}", ctx.ctext(name_i)),
            kind,
            file: relpath.to_string(),
            line: ctx.ctok(name_i).line,
        });
    }
}

/// Resolve the receiver of a `.lock()`/`.wait()`/`.notify_*()` whose `.`
/// is at code-index `dot`: the field (or alias / static) the call is on.
fn resolve_receiver(
    ctx: &FileCtx,
    dot: usize,
    impl_type: Option<&str>,
    aliases: &HashMap<String, String>,
    scan: &Scan,
) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let mut j = dot - 1;
    // Skip one indexing group: `shards[i].lock()`.
    if ctx.ctext(j) == "]" {
        let mut depth = 0i64;
        loop {
            match ctx.ctext(j) {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    if ctx.ctok(j).kind != TokKind::Ident {
        return None;
    }
    let name = ctx.ctext(j);
    if j > 0 && ctx.ctext(j - 1) == "." {
        // Field access: resolve by field name.
        scan.resolve_field(name, impl_type)
    } else if let Some(id) = aliases.get(name) {
        Some(id.clone())
    } else if scan.is_static_lock(name) {
        Some(name.to_string())
    } else {
        None
    }
}

/// What one fn-body walk produces.
struct BodyScan {
    fs: FnScan,
    edges: Vec<LockEdge>,
    hazards: Vec<CondvarHazard>,
    unresolved: Vec<(String, u32)>,
    waited: Vec<(String, (String, u32))>,
    notified: Vec<String>,
}

/// Symbolic walk of one fn body (`lo..=hi` are the body braces).
fn scan_fn_body(
    ctx: &FileCtx,
    lo: usize,
    hi: usize,
    fn_name: &str,
    impl_type: Option<&str>,
    relpath: &str,
    scan_locks: &Scan,
) -> BodyScan {
    let mut fs = FnScan {
        name: fn_name.to_string(),
        impl_type: impl_type.map(str::to_string),
        file: relpath.to_string(),
        direct: HashSet::new(),
        all_calls: Vec::new(),
        holds_at_call: Vec::new(),
    };
    let mut edges = Vec::new();
    let mut hazards = Vec::new();
    let mut unresolved = Vec::new();
    let mut waited: Vec<(String, (String, u32))> = Vec::new();
    let mut notified: Vec<String> = Vec::new();

    let mut guards: Vec<Guard> = Vec::new();
    let mut aliases: HashMap<String, String> = HashMap::new();
    // Method names chained directly on a `.lock()` guard — they act on
    // the inner data, which cannot re-acquire its own lock, so a
    // same-name user fn must not be unioned in as a callee
    // (`self.writer.lock().unwrap().flush()` is `io::Write::flush`,
    // not `JsonlSink::flush`).
    let mut chain_skip: HashSet<usize> = HashSet::new();
    let mut depth = 0i64;
    for ci in lo..=hi {
        // Retire temporaries whose statement ended.
        guards.retain(|g| g.temp_end.is_none_or(|e| ci < e));
        let text = ctx.ctext(ci);
        let line = ctx.ctok(ci).line;
        match text {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
                // The branch holding a conditional drop has closed: the
                // other path still holds the guard.
                for g in &mut guards {
                    if g.dropped_at.is_some_and(|d| d > depth) {
                        g.dropped_at = None;
                    }
                }
            }
            "drop"
                if ctx.seq_at(ci + 1, &["("])
                    && ctx.ctok(ci).kind == TokKind::Ident
                    && ctx.code.get(ci + 2).is_some()
                    && ctx.ctok(ci + 2).kind == TokKind::Ident
                    && ctx.ctext(ci + 3) == ")" =>
            {
                let victim = ctx.ctext(ci + 2).to_string();
                // A drop at the guard's own depth is unconditional; one
                // in a nested block only suppresses the guard until that
                // branch closes.
                guards.retain(|g| g.binding.as_deref() != Some(victim.as_str()) || depth > g.depth);
                for g in &mut guards {
                    if g.binding.as_deref() == Some(victim.as_str()) {
                        g.dropped_at = Some(depth);
                    }
                }
            }
            "let" if ctx.ctok(ci).kind == TokKind::Ident => {
                // One-level alias: `let x = …field…;` with no `.lock(`
                // on the rhs, where `field` is an inventoried lock.
                let end = ctx.stmt_end(ci);
                let mut has_lock_call = false;
                let mut alias_target = None;
                let mut k = ci;
                while k + 2 < end {
                    if ctx.seq_at(k, &[".", "lock", "("]) || ctx.seq_at(k, &[".", "wait", "("]) {
                        has_lock_call = true;
                        break;
                    }
                    k += 1;
                }
                if !has_lock_call {
                    for k in ci + 1..end {
                        if ctx.ctok(k).kind == TokKind::Ident && k > 0 && ctx.ctext(k - 1) == "." {
                            if let Some(id) = scan_locks.resolve_field(ctx.ctext(k), impl_type) {
                                alias_target = Some(id);
                            }
                        }
                    }
                    if let Some(id) = alias_target {
                        let mut k = ci + 1;
                        if ctx.ctext(k) == "mut" {
                            k += 1;
                        }
                        if ctx.ctok(k).kind == TokKind::Ident && ctx.ctext(k + 1) == "=" {
                            aliases.insert(ctx.ctext(k).to_string(), id);
                        }
                    }
                }
            }
            _ => {}
        }
        // A call: `.lock()`, `.wait(…)` and `.notify_*()` act on guards;
        // any other callee joins the may-acquire union. Constructors
        // (capitalized bare or path callees) are skipped.
        let kind = call_at(ctx, ci);
        let method = match kind {
            Some(CallKind::Method) => true,
            Some(_) if text != "drop" && text.chars().next().is_some_and(char::is_lowercase) => {
                false
            }
            _ => continue,
        };
        match text {
            "lock" if method => {
                match resolve_receiver(ctx, ci - 1, impl_type, &aliases, scan_locks) {
                    Some(id) if scan_locks.lock_kind(&id) == Some(LockKind::Mutex) => {
                        fs.direct.insert(id.clone());
                        for g in guards.iter().filter(|g| g.dropped_at.is_none()) {
                            edges.push(LockEdge {
                                from: g.lock.clone(),
                                to: id.clone(),
                                file: relpath.to_string(),
                                line,
                                via: None,
                            });
                        }
                        // Binding shape decides the guard's lifetime.
                        let (binding, temp_end) = binding_of(ctx, ctx.stmt_start(ci), ci);
                        if let Some(b) = &binding {
                            // Shadowing / reassignment replaces.
                            guards.retain(|g| g.binding.as_deref() != Some(b.as_str()));
                        }
                        guards.push(Guard {
                            lock: id,
                            binding,
                            depth,
                            temp_end,
                            dropped_at: None,
                        });
                        let mut k = close_paren(ctx, ci + 1, hi);
                        while ctx.ctext(k + 1) == "."
                            && ctx.code.get(k + 2).is_some()
                            && ctx.ctok(k + 2).kind == TokKind::Ident
                            && ctx.ctext(k + 3) == "("
                        {
                            chain_skip.insert(k + 2);
                            k = close_paren(ctx, k + 3, hi);
                        }
                    }
                    _ => unresolved.push((relpath.to_string(), line)),
                }
            }
            "wait" | "wait_timeout" | "wait_while" if method => {
                match resolve_receiver(ctx, ci - 1, impl_type, &aliases, scan_locks) {
                    Some(cv) if scan_locks.lock_kind(&cv) == Some(LockKind::Condvar) => {
                        waited.push((cv.clone(), (relpath.to_string(), line)));
                        // The guard argument: first ident inside `(…)`.
                        let arg = if ctx.code.get(ci + 2).is_some()
                            && ctx.ctok(ci + 2).kind == TokKind::Ident
                        {
                            Some(ctx.ctext(ci + 2).to_string())
                        } else {
                            None
                        };
                        let released = arg.as_ref().and_then(|a| {
                            guards
                                .iter()
                                .find(|g| g.binding.as_deref() == Some(a.as_str()))
                                .map(|g| g.lock.clone())
                        });
                        let still_held: Vec<String> = guards
                            .iter()
                            .filter(|g| g.dropped_at.is_none())
                            .filter(|g| match (&released, &g.binding, &arg) {
                                (Some(_), Some(b), Some(a)) => b != a,
                                _ => released.is_none(),
                            })
                            .map(|g| g.lock.clone())
                            .collect();
                        if !still_held.is_empty() {
                            hazards.push(CondvarHazard::WaitWhileHolding {
                                condvar: cv,
                                released,
                                held: still_held,
                                file: relpath.to_string(),
                                line,
                            });
                        }
                    }
                    Some(_) => {} // `.wait()` on a non-condvar (e.g. a future)
                    None => unresolved.push((relpath.to_string(), line)),
                }
            }
            "notify_all" | "notify_one" if method => {
                if let Some(cv) = resolve_receiver(ctx, ci - 1, impl_type, &aliases, scan_locks) {
                    notified.push(cv);
                }
            }
            _ if method && (STD_METHODS.contains(&text) || chain_skip.contains(&ci)) => {}
            _ => {
                let callee = || Callee {
                    name: text.to_string(),
                    ty: (kind == Some(CallKind::Path))
                        .then(|| path_type(ctx, ci, impl_type))
                        .flatten(),
                };
                fs.all_calls.push(callee());
                let held: Vec<String> = guards
                    .iter()
                    .filter(|g| g.dropped_at.is_none())
                    .map(|g| g.lock.clone())
                    .collect();
                if !held.is_empty() {
                    fs.holds_at_call.push((held, callee(), line));
                }
            }
        }
    }
    BodyScan {
        fs,
        edges,
        hazards,
        unresolved,
        waited,
        notified,
    }
}

/// The type of the path call whose callee name is code token `ci`:
/// `Type` in `Type::name(…)`, the enclosing impl's type for `Self`, and
/// `None` for a module path (`wal::open(…)`, a lowercase qualifier).
fn path_type(ctx: &FileCtx, ci: usize, impl_type: Option<&str>) -> Option<String> {
    let q = ci.checked_sub(3)?;
    match ctx.ctext(q) {
        "Self" => impl_type.map(str::to_string),
        t if ctx.ctok(q).kind == TokKind::Ident && t.starts_with(char::is_uppercase) => {
            Some(t.to_string())
        }
        _ => None,
    }
}

/// Code-index of the `)` matching the `(` at `open` (clamped to `hi`).
fn close_paren(ctx: &FileCtx, open: usize, hi: usize) -> usize {
    let mut bal = 0i64;
    let mut k = open;
    while k <= hi {
        match ctx.ctext(k) {
            "(" => bal += 1,
            ")" => {
                bal -= 1;
                if bal == 0 {
                    return k;
                }
            }
            _ => {}
        }
        k += 1;
    }
    hi
}

/// `(binding, temp_end)` for a guard acquired in the statement starting
/// at code-index `s`: `let [mut] name = …` binds for the block;
/// `name = …` rebinds; anything else is a temporary living to the end
/// of the statement.
fn binding_of(ctx: &FileCtx, s: usize, ci: usize) -> (Option<String>, Option<usize>) {
    if ctx.ctext(s) == "let" {
        let mut k = s + 1;
        if ctx.ctext(k) == "mut" {
            k += 1;
        }
        if ctx.ctok(k).kind == TokKind::Ident && ctx.ctext(k + 1) == "=" {
            return (Some(ctx.ctext(k).to_string()), None);
        }
        // `let (a, b) = …`, `let Some(x) = …`: keep it held for the
        // block (conservative — over-holding can only add edges).
        return (None, None);
    }
    if ctx.ctok(s).kind == TokKind::Ident && ctx.ctext(s + 1) == "=" {
        return (Some(ctx.ctext(s).to_string()), None);
    }
    (None, Some(ctx.stmt_end(ci)))
}

/// Analyze in-memory sources (`(workspace-relative path, text)` pairs).
/// The core the path-walking front end and the tests share.
pub fn analyze_lock_sources(sources: &[(String, String)]) -> LockReport {
    let mut scan = Scan::default();
    let files: Vec<(&str, FileCtx, Vec<Item>)> = sources
        .iter()
        .map(|(p, s)| {
            let ctx = FileCtx::new(s);
            let items = items(&ctx, p);
            (p.as_str(), ctx, items)
        })
        .collect();

    // Pass 1: lock inventory over every file.
    for (p, ctx, items) in &files {
        inventory_locks(ctx, items, p, &mut scan);
    }

    // Pass 2: a symbolic walk of each outermost non-test fn body; a fn
    // nested in a body is walked as part of it.
    for (p, ctx, items) in &files {
        let mut next = 0;
        for f in items.iter().filter(|it| it.kind == "fn") {
            let Some((lo, hi)) = f.body.filter(|_| f.kw >= next) else {
                continue;
            };
            next = hi + 1;
            if f.test {
                continue;
            }
            let body = scan_fn_body(ctx, lo, hi, &f.name, f.impl_type.as_deref(), p, &scan);
            scan.edges.extend(body.edges);
            scan.hazards.extend(body.hazards);
            scan.unresolved.extend(body.unresolved);
            for (cv, site) in body.waited {
                scan.waited.entry(cv).or_insert(site);
            }
            scan.notified.extend(body.notified);
            scan.fns.push(body.fs);
        }
    }

    // Interprocedural may-acquire fixpoint over callees.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, f) in scan.fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(i);
    }
    let targets = |c: &Callee| -> Vec<usize> {
        let js = by_name.get(c.name.as_str()).into_iter().flatten().copied();
        js.filter(|&j| c.resolves_to(&scan.fns[j])).collect()
    };
    let mut may: Vec<HashSet<String>> = scan.fns.iter().map(|f| f.direct.clone()).collect();
    loop {
        let mut changed = false;
        for i in 0..scan.fns.len() {
            let mut add: Vec<String> = Vec::new();
            for callee in &scan.fns[i].all_calls {
                for j in targets(callee) {
                    for l in &may[j] {
                        if !may[i].contains(l) {
                            add.push(l.clone());
                        }
                    }
                }
            }
            for l in add {
                changed |= may[i].insert(l);
            }
        }
        if !changed {
            break;
        }
    }
    let mut inter_edges = Vec::new();
    for f in &scan.fns {
        for (held, callee, line) in &f.holds_at_call {
            let js = targets(callee);
            let mut acq: Vec<&String> = js.iter().flat_map(|&j| may[j].iter()).collect();
            acq.sort();
            acq.dedup();
            for to in acq {
                for from in held {
                    inter_edges.push(LockEdge {
                        from: from.clone(),
                        to: to.clone(),
                        file: f.file.clone(),
                        line: *line,
                        via: Some(callee.name.clone()),
                    });
                }
            }
        }
    }
    scan.edges.extend(inter_edges);

    // Dedup edges by (from, to, via), keeping the first site.
    let mut seen: HashSet<(String, String, Option<String>)> = HashSet::new();
    scan.edges
        .retain(|e| seen.insert((e.from.clone(), e.to.clone(), e.via.clone())));

    // Missed-notify hazards.
    let mut hazards = std::mem::take(&mut scan.hazards);
    for (cv, (file, line)) in &scan.waited {
        if !scan.notified.contains(cv) {
            hazards.push(CondvarHazard::NeverNotified {
                condvar: cv.clone(),
                file: file.clone(),
                line: *line,
            });
        }
    }

    // Cycle detection over the mutex-order graph.
    let cycles = find_cycles(&scan.edges);

    LockReport {
        locks: scan.locks,
        edges: scan.edges,
        cycles,
        hazards,
        unresolved_sites: scan.unresolved,
    }
}

/// All elementary cycles in the edge set (deduplicated by canonical
/// rotation). Small graphs only — the lock inventory is a handful of
/// nodes.
fn find_cycles(edges: &[LockEdge]) -> Vec<Vec<String>> {
    let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
    for e in edges {
        adj.entry(e.from.as_str()).or_default().push(e.to.as_str());
    }
    let mut found: HashSet<Vec<String>> = HashSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        // DFS bounded by path; collects cycles returning to `start`.
        let mut stack: Vec<(&str, Vec<String>)> = vec![(start, vec![start.to_string()])];
        while let Some((u, path)) = stack.pop() {
            for &v in adj.get(u).map(Vec::as_slice).unwrap_or(&[]) {
                if v == start {
                    found.insert(canonical_cycle(&path));
                } else if !path.iter().any(|p| p == v) && path.len() < 16 {
                    let mut next = path.clone();
                    next.push(v.to_string());
                    stack.push((v, next));
                }
            }
        }
    }
    let mut out: Vec<Vec<String>> = found.into_iter().collect();
    out.sort();
    out
}

/// Rotate a cycle so its lexicographically smallest node leads.
fn canonical_cycle(path: &[String]) -> Vec<String> {
    let min = path
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| s.as_str())
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut out = Vec::with_capacity(path.len());
    out.extend_from_slice(&path[min..]);
    out.extend_from_slice(&path[..min]);
    out
}

/// Analyze every `.rs` file under `root`-relative `paths`
/// (`lockwitness.rs` itself is excluded — its wrappers *are* the
/// dynamic instrument, not subjects).
pub fn analyze_locks(root: &Path, paths: &[&str]) -> std::io::Result<LockReport> {
    let mut sources = Vec::new();
    for p in paths {
        let dir = root.join(p);
        let mut files = Vec::new();
        collect_rs(&dir, &mut files)?;
        files.sort();
        for f in files {
            let relpath = rel(root, &f);
            if relpath.ends_with("lockwitness.rs") {
                continue;
            }
            sources.push((relpath, std::fs::read_to_string(&f)?));
        }
    }
    Ok(analyze_lock_sources(&sources))
}

/// Dynamic cross-check result: lockwitness edges vs the static graph.
#[derive(Debug)]
pub struct DynamicReport {
    /// Edges the witness observed (`held → acquired`).
    pub observed: Vec<(String, String)>,
    /// Observed edges the static graph did not predict.
    pub unpredicted: Vec<(String, String)>,
    /// Total tracked-lock acquisitions during the workload. It depends
    /// on how the workers interleave, so only the text report shows it:
    /// the JSON form is the same on every run of one tree.
    pub acquisitions: u64,
    /// `observed ⊆ static`.
    pub consistent: bool,
}

impl DynamicReport {
    /// JSON form for `fcix-check locks --dynamic --format json`: the
    /// edges and the verdict, without the acquisition tally.
    pub fn to_json(&self) -> JsonValue {
        let pairs = |v: &[(String, String)]| {
            JsonValue::Arr(
                v.iter()
                    .map(|(a, b)| {
                        JsonValue::obj(vec![
                            ("from", JsonValue::Str(a.clone())),
                            ("to", JsonValue::Str(b.clone())),
                        ])
                    })
                    .collect(),
            )
        };
        JsonValue::obj(vec![
            ("observed", pairs(&self.observed)),
            ("unpredicted", pairs(&self.unpredicted)),
            ("consistent", JsonValue::Bool(self.consistent)),
        ])
    }

    /// Human-readable rendering.
    pub fn render_text(&self) -> String {
        let mut s = format!(
            "dynamic witness: {} acquisitions, {} distinct edges\n",
            self.acquisitions,
            self.observed.len()
        );
        for (a, b) in &self.observed {
            s.push_str(&format!("  observed {a} -> {b}\n"));
        }
        for (a, b) in &self.unpredicted {
            s.push_str(&format!("  UNPREDICTED EDGE: {a} -> {b}\n"));
        }
        s
    }
}

/// Run a small in-process serve workload under the
/// [`fci_obs::lockwitness`] and check every observed lock-order edge is
/// predicted by `static_report`.
pub fn dynamic_cross_check(static_report: &LockReport) -> DynamicReport {
    use fci_serve::{serve, JobSpec, JobStatus, ProblemSpec, ServeConfig};

    fci_obs::lockwitness::reset_witness();
    fci_obs::lockwitness::set_witness_enabled(true);
    let cfg = ServeConfig {
        workers: 3,
        checkpoint_dir: std::env::temp_dir().join("fcix-locks-dynamic"),
        ..ServeConfig::default()
    };
    let problem = |sites: usize| ProblemSpec::Hubbard {
        sites,
        t: 1.0,
        u: 4.0,
        periodic: false,
    };
    let mut jobs = Vec::new();
    for i in 0..6 {
        let mut j = JobSpec::new(format!("dyn-{i}"), problem(4), 2, 2);
        j.tenant = if i % 2 == 0 { "a" } else { "b" }.to_string();
        jobs.push(j);
    }
    // A duplicate id exercises the reject path (Server.rejected) too.
    jobs.push(JobSpec::new("dyn-0", problem(4), 2, 2));
    let report = serve(cfg, jobs);
    fci_obs::lockwitness::set_witness_enabled(false);
    let done = report
        .results
        .iter()
        .filter(|r| r.status == JobStatus::Done);
    assert!(done.count() > 0, "workload must run jobs");
    witness_report(static_report)
}

/// Compare the edges the [`fci_obs::lockwitness`] has recorded so far
/// against `static_report`'s graph. The witness sees what the static
/// pass cannot follow, such as a lock taken behind a `fn` pointer.
pub fn witness_report(static_report: &LockReport) -> DynamicReport {
    let observed = fci_obs::lockwitness::witness_edges();
    let acquisitions: u64 = fci_obs::lockwitness::witness_acquisitions()
        .iter()
        .map(|(_, c)| c)
        .sum();
    let predicted: HashSet<(String, String)> = static_report
        .edges
        .iter()
        .map(|e| (e.from.clone(), e.to.clone()))
        .collect();
    let unpredicted: Vec<(String, String)> = observed
        .iter()
        .filter(|e| !predicted.contains(*e))
        .cloned()
        .collect();
    DynamicReport {
        consistent: unpredicted.is_empty(),
        observed,
        unpredicted,
        acquisitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_of(files: &[(&str, &str)]) -> LockReport {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        analyze_lock_sources(&sources)
    }

    const AB_DECL: &str = "pub struct P {\n    a: Mutex<u32>,\n    b: Mutex<u32>,\n}\n";

    #[test]
    fn inventory_finds_fields_and_statics() {
        let r = report_of(&[(
            "crates/x/src/lib.rs",
            "struct S {\n    pub state: TrackedMutex<Q>,\n    work: TrackedCondvar,\n    plain: usize,\n    nested: Vec<Mutex<u8>>,\n}\nstatic POOL: Mutex<Vec<u8>> = Mutex::new(Vec::new());\n",
        )]);
        let ids: Vec<&str> = r.locks.iter().map(|l| l.id.as_str()).collect();
        assert_eq!(ids, vec!["S.state", "S.work", "S.nested", "POOL"]);
        assert_eq!(r.locks[1].kind, LockKind::Condvar);
        assert_eq!(r.locks[0].kind, LockKind::Mutex);
    }

    #[test]
    fn nested_acquisition_makes_an_edge_and_opposite_order_a_cycle() {
        let src = format!(
            "{AB_DECL}impl P {{\n    fn ab(&self) {{\n        let ga = self.a.lock();\n        let gb = self.b.lock();\n        drop(gb);\n        drop(ga);\n    }}\n    fn ba(&self) {{\n        let gb = self.b.lock();\n        let ga = self.a.lock();\n        drop(ga);\n        drop(gb);\n    }}\n}}\n"
        );
        let r = report_of(&[("crates/x/src/lib.rs", &src)]);
        assert!(r.edges.iter().any(|e| e.from == "P.a" && e.to == "P.b"));
        assert!(r.edges.iter().any(|e| e.from == "P.b" && e.to == "P.a"));
        assert_eq!(r.cycles.len(), 1, "{:?}", r.cycles);
        assert_eq!(r.cycles[0], vec!["P.a".to_string(), "P.b".to_string()]);
        assert!(!r.is_clean());
    }

    #[test]
    fn drop_releases_the_guard_before_the_second_lock() {
        let src = format!(
            "{AB_DECL}impl P {{\n    fn sequential(&self) {{\n        let ga = self.a.lock();\n        drop(ga);\n        let gb = self.b.lock();\n        drop(gb);\n    }}\n}}\n"
        );
        let r = report_of(&[("crates/x/src/lib.rs", &src)]);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
        assert!(r.is_clean());
    }

    #[test]
    fn block_scope_ends_a_guard() {
        let src = format!(
            "{AB_DECL}impl P {{\n    fn scoped(&self) {{\n        {{\n            let ga = self.a.lock();\n            let _x = *ga;\n        }}\n        let gb = self.b.lock();\n        drop(gb);\n    }}\n}}\n"
        );
        let r = report_of(&[("crates/x/src/lib.rs", &src)]);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
    }

    #[test]
    fn temporary_guard_lives_only_for_its_statement() {
        let src = format!(
            "{AB_DECL}impl P {{\n    fn temp(&self) {{\n        *self.a.lock() += 1;\n        let gb = self.b.lock();\n        drop(gb);\n    }}\n    fn same_stmt(&self) -> u32 {{\n        *self.a.lock() + *self.b.lock()\n    }}\n}}\n"
        );
        let r = report_of(&[("crates/x/src/lib.rs", &src)]);
        // The += statement's guard is gone before b is taken…
        assert!(!r
            .edges
            .iter()
            .any(|e| e.from == "P.a" && e.to == "P.b" && e.line == 8));
        // …but two temporaries in one expression do overlap.
        assert!(
            r.edges.iter().any(|e| e.from == "P.a" && e.to == "P.b"),
            "{:?}",
            r.edges
        );
    }

    #[test]
    fn method_chained_on_guard_is_not_a_reentrant_callee() {
        // `self.a.lock().flush()` calls the *inner* value's flush, not
        // `P::flush` — no self-edge, no cycle.
        let src = format!(
            "{AB_DECL}impl P {{\n    fn write(&self) {{\n        let _ = self.a.lock().flush();\n    }}\n    fn flush(&self) {{\n        let ga = self.a.lock();\n        drop(ga);\n    }}\n}}\n"
        );
        let r = report_of(&[("crates/x/src/lib.rs", &src)]);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
        assert!(r.cycles.is_empty(), "{:?}", r.cycles);
    }

    /// `Box::new` and `Vec::new` under a guard are std constructors, not
    /// the workspace's `Sink::new`; `Sink::new` and `Self::new` still
    /// reach the lock the workspace `new` takes.
    #[test]
    fn a_typed_path_call_resolves_only_to_its_impl() {
        let sink = ("crates/x/src/sink.rs", "pub struct Sink {\n    w: Mutex<u32>,\n}\nimpl Sink {\n    fn new(&self) {\n        let g = self.w.lock();\n        drop(g);\n    }\n}\n");
        let under_a = |call: &str| {
            let src = format!(
                "{AB_DECL}impl P {{\n    fn f(&self) {{\n        let ga = self.a.lock();\n        let x = {call};\n        drop(ga);\n    }}\n    fn new(&self) {{\n        let gb = self.b.lock();\n        drop(gb);\n    }}\n}}\n"
            );
            let r = report_of(&[("crates/x/src/lib.rs", &src), sink]);
            let mut to: Vec<String> = r.edges.into_iter().map(|e| e.to).collect();
            to.sort();
            to
        };
        assert!(under_a("Box::new(Vec::new())").is_empty());
        assert_eq!(under_a("Sink::new()"), ["Sink.w"]);
        assert_eq!(under_a("Self::new()"), ["P.b"]);
        assert_eq!(under_a("P::new()"), ["P.b"]);
        // A bare or method call still joins every fn of its name.
        assert_eq!(under_a("self.new()"), ["P.b", "Sink.w"]);
    }

    #[test]
    fn interprocedural_edges_through_a_callee() {
        let src = format!(
            "{AB_DECL}impl P {{\n    fn outer(&self) {{\n        let ga = self.a.lock();\n        self.helper();\n        drop(ga);\n    }}\n    fn helper(&self) {{\n        let gb = self.b.lock();\n        drop(gb);\n    }}\n}}\n"
        );
        let r = report_of(&[("crates/x/src/lib.rs", &src)]);
        let e = r
            .edges
            .iter()
            .find(|e| e.from == "P.a" && e.to == "P.b")
            .expect("interprocedural edge");
        assert_eq!(e.via.as_deref(), Some("helper"));
        assert!(r.is_clean(), "one-directional nesting is fine");
    }

    #[test]
    fn condvar_wait_holding_second_lock_is_a_hazard() {
        let src = "pub struct S {\n    state: Mutex<u32>,\n    other: Mutex<u32>,\n    cv: Condvar,\n}\nimpl S {\n    fn bad(&self) {\n        let go = self.other.lock();\n        let mut st = self.state.lock().unwrap();\n        st = self.cv.wait(st).unwrap();\n        drop(st);\n        drop(go);\n    }\n    fn wake(&self) {\n        self.cv.notify_all();\n    }\n}\n";
        let r = report_of(&[("crates/x/src/lib.rs", src)]);
        assert!(
            r.hazards.iter().any(|h| matches!(
                h,
                CondvarHazard::WaitWhileHolding { condvar, held, .. }
                    if condvar == "S.cv" && held.contains(&"S.other".to_string())
            )),
            "{:?}",
            r.hazards
        );
    }

    #[test]
    fn condvar_wait_with_only_its_own_mutex_is_fine() {
        let src = "pub struct S {\n    state: Mutex<u32>,\n    cv: Condvar,\n}\nimpl S {\n    fn park(&self) {\n        let mut st = self.state.lock().unwrap();\n        while *st == 0 {\n            st = self.cv.wait(st).unwrap();\n        }\n        drop(st);\n    }\n    fn wake(&self) {\n        self.cv.notify_all();\n    }\n}\n";
        let r = report_of(&[("crates/x/src/lib.rs", src)]);
        assert!(r.is_clean(), "{:?} {:?}", r.hazards, r.cycles);
    }

    #[test]
    fn never_notified_condvar_is_flagged() {
        let src = "pub struct S {\n    state: Mutex<u32>,\n    cv: Condvar,\n}\nimpl S {\n    fn park(&self) {\n        let mut st = self.state.lock().unwrap();\n        st = self.cv.wait(st).unwrap();\n        drop(st);\n    }\n}\n";
        let r = report_of(&[("crates/x/src/lib.rs", src)]);
        assert!(
            r.hazards.iter().any(
                |h| matches!(h, CondvarHazard::NeverNotified { condvar, .. } if condvar == "S.cv")
            ),
            "{:?}",
            r.hazards
        );
    }

    #[test]
    fn field_name_collision_resolved_by_impl_type() {
        let src = "pub struct A {\n    state: Mutex<u32>,\n}\npub struct B {\n    state: Mutex<u32>,\n    aux: Mutex<u32>,\n}\nimpl A {\n    fn f(&self) {\n        let g = self.state.lock();\n        drop(g);\n    }\n}\nimpl B {\n    fn f(&self) {\n        let g = self.state.lock();\n        let h = self.aux.lock();\n        drop(h);\n        drop(g);\n    }\n}\n";
        let r = report_of(&[("crates/x/src/lib.rs", src)]);
        assert!(r.unresolved_sites.is_empty(), "{:?}", r.unresolved_sites);
        assert!(
            r.edges
                .iter()
                .any(|e| e.from == "B.state" && e.to == "B.aux"),
            "{:?}",
            r.edges
        );
        assert!(!r.edges.iter().any(|e| e.from == "A.state"));
    }

    #[test]
    fn one_level_alias_resolves_indexed_shard() {
        let src = "pub struct Store {\n    shards: Vec<Mutex<u32>>,\n}\nimpl Store {\n    fn touch(&self, i: usize) {\n        let shard = &self.shards[i];\n        let mut s = shard.lock().unwrap();\n        *s += 1;\n    }\n    fn direct(&self, i: usize) {\n        let mut s = self.shards[i].lock().unwrap();\n        *s += 1;\n    }\n}\n";
        let r = report_of(&[("crates/x/src/lib.rs", src)]);
        assert!(r.unresolved_sites.is_empty(), "{:?}", r.unresolved_sites);
    }

    #[test]
    fn unresolved_receivers_are_counted_not_dropped() {
        let src = "pub struct S {\n    state: Mutex<u32>,\n}\nimpl S {\n    fn f(&self, foreign: &std::sync::Mutex<u32>) {\n        let g = foreign.lock();\n        drop(g);\n    }\n}\n";
        let r = report_of(&[("crates/x/src/lib.rs", src)]);
        assert_eq!(r.unresolved_sites.len(), 1);
    }

    #[test]
    fn test_fns_are_skipped() {
        let src = "pub struct P {\n    a: Mutex<u32>,\n    b: Mutex<u32>,\n}\n#[cfg(test)]\nmod tests {\n    fn scramble(p: &super::P) {\n        let gb = p.b.lock();\n        let ga = p.a.lock();\n        drop(ga);\n        drop(gb);\n    }\n}\n";
        let r = report_of(&[("crates/x/src/lib.rs", src)]);
        assert!(r.edges.is_empty(), "{:?}", r.edges);
    }

    #[test]
    fn json_report_parses() {
        let src = format!(
            "{AB_DECL}impl P {{\n    fn ab(&self) {{\n        let ga = self.a.lock();\n        let gb = self.b.lock();\n        drop(gb);\n        drop(ga);\n    }}\n}}\n"
        );
        let r = report_of(&[("crates/x/src/lib.rs", &src)]);
        let parsed = JsonValue::parse(&r.to_json().to_string()).expect("valid json");
        assert_eq!(parsed.get("clean"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            parsed.get("unresolved_sites"),
            Some(&JsonValue::Arr(Vec::new()))
        );
    }
}
