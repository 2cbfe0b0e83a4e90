//! The witness row of the mutation matrix (`mutants.rs`): a lock order
//! that only the runtime lock witness sees. It runs in a test binary of
//! its own because the witness is process-global.

#[path = "fixtures/fn_pointer_locks.rs"]
mod fixture;

use fci_check::locks::{analyze_lock_sources, witness_report};
use fci_obs::lockwitness::{reset_witness, set_witness_enabled};

#[test]
fn lock_order_behind_a_fn_pointer_is_flagged_by_the_witness_only() {
    let src = include_str!("fixtures/fn_pointer_locks.rs");
    // Labelled as production code: a path under `tests/` is test code,
    // which the analysis skips.
    let report = analyze_lock_sources(&[("fixtures/fn_pointer_locks.rs".into(), src.into())]);
    // The static pass sees the direct nesting and nothing else.
    let predicted: Vec<(&str, &str)> = report
        .edges
        .iter()
        .map(|e| (e.from.as_str(), e.to.as_str()))
        .collect();
    assert_eq!(predicted, [("Pair.a", "Pair.b")]);
    assert!(report.is_clean(), "{}", report.render_text());

    reset_witness();
    set_witness_enabled(true);
    let pair = fixture::Pair::new();
    pair.forward();
    pair.backward(fixture::Pair::take_a);
    set_witness_enabled(false);
    let witness = witness_report(&report);
    print!("{}", witness.render_text());
    assert_eq!(
        witness.unpredicted,
        [("Pair.b".to_string(), "Pair.a".to_string())]
    );
    assert!(!witness.consistent);
    println!(
        "{:<44} {:<18} flagged by {{\"witness\"}}",
        "lock order behind a fn pointer", "fn_pointer_locks.rs"
    );
}
