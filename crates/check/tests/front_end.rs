//! `graph`, `locks` and `dead` read one item walk: over one fixture they
//! agree on which fn is a method of which `impl` type and which items
//! are test code. The fixture is read as text, never compiled.

use fci_check::dead::find_dead;
use fci_check::graph::analyze_hot_paths;
use fci_check::locks::analyze_lock_sources;

/// A fn taking `impl Fn()` whose body holds a nested fn, a `pub(crate)`
/// method, and a `#[cfg(test)]` module. `state` names a field of two
/// structs, so a lock on it resolves only through an `impl` type.
const LIB: &str = "\
use std::sync::Mutex;

struct Gate {
    state: Mutex<u32>,
}

pub struct Pool {
    state: Mutex<u32>,
    aux: Mutex<u32>,
}

impl Pool {
    pub(crate) fn drain(&self) {
        let s = self.state.lock();
        let a = self.aux.lock();
        drop(a);
        drop(s);
    }
}

pub fn outer(pool: &Pool, f: impl Fn()) {
    pub fn nested(pool: &Pool) {
        let s = pool.state.lock();
        drop(s);
    }
    let run: fn(&Pool) = nested;
    run(pool);
    f();
}

#[cfg(test)]
mod tests {
    pub fn helper(pool: &super::Pool) {
        let a = pool.aux.lock();
        let s = pool.state.lock();
        drop(s);
        drop(a);
    }
}
";

/// A file under `tests/`: it takes the locks in the opposite order and
/// calls `outer`, neither of which counts.
const TESTS: &str = "\
pub fn reversed(pool: &fci_a::Pool) {
    let a = pool.aux.lock();
    let s = pool.state.lock();
    drop(s);
    drop(a);
    fci_a::outer(pool, || {});
}
";

const LIB_PATH: &str = "crates/a/src/lib.rs";
const TESTS_PATH: &str = "crates/a/tests/t.rs";

#[test]
fn graph_locks_and_dead_read_the_same_item_facts() {
    let dir = std::env::temp_dir().join(format!("fcix-front-end-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (relpath, src) in [(LIB_PATH, LIB), (TESTS_PATH, TESTS)] {
        let p = dir.join(relpath);
        std::fs::create_dir_all(p.parent().expect("parent")).expect("mkdir");
        std::fs::write(&p, src).expect("write");
    }
    let (graph, _) = analyze_hot_paths(&dir, &[]).expect("graph");
    let dead = find_dead(&dir).expect("dead");
    std::fs::remove_dir_all(&dir).ok();

    // graph: `impl Fn()` in a signature opens no impl block, so the
    // nested fn is a free fn; the method keeps its type; test code is
    // marked so in both spellings.
    let facts: Vec<(&str, Option<&str>, bool)> = graph
        .fns
        .iter()
        .map(|f| (f.name.as_str(), f.impl_type.as_deref(), f.is_test))
        .collect();
    assert_eq!(
        facts,
        [
            ("drain", Some("Pool"), false),
            ("outer", None, false),
            ("nested", None, false),
            ("helper", None, true),
            ("reversed", None, true),
        ]
    );

    // locks: the method's `self.state` resolves through its impl type;
    // the nested fn's `pool.state` has none to resolve through; neither
    // test fn's reversed order becomes an edge.
    let locks = analyze_lock_sources(&[
        (LIB_PATH.into(), LIB.into()),
        (TESTS_PATH.into(), TESTS.into()),
    ]);
    let edges: Vec<(&str, &str)> = locks
        .edges
        .iter()
        .map(|e| (e.from.as_str(), e.to.as_str()))
        .collect();
    assert_eq!(edges, [("Pool.state", "Pool.aux")]);
    assert_eq!(locks.unresolved_sites, [(LIB_PATH.to_string(), 23)]);
    assert!(locks.is_clean(), "{}", locks.render_text());

    // dead: the nested fn is not a method, so naming it without a call
    // keeps it; the `pub(crate)` method and the test items are never
    // reported; a call from `tests/` keeps nothing alive.
    let names: Vec<&str> = dead.items.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, ["outer"]);
}
