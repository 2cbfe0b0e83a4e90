//! Span self-time arithmetic: nested, adjacent, overlapping and
//! zero-length children.

use fcix_perf::span::{rollup, self_times, Span, Spans};

fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
    Span {
        name: name.into(),
        start,
        end,
        parent,
    }
}

#[test]
fn nested_children_subtract_once_per_level() {
    // root [0,10] ⊃ a [1,7] ⊃ b [2,5]
    let spans = [
        span("root", 0.0, 10.0, None),
        span("a", 1.0, 7.0, Some(0)),
        span("b", 2.0, 5.0, Some(1)),
    ];
    assert_eq!(self_times(&spans), vec![4.0, 3.0, 3.0]);
}

#[test]
fn adjacent_children_add_up() {
    // Two children that touch: [1,4] and [4,6] cover 5 of the parent's 8.
    let spans = [
        span("root", 0.0, 8.0, None),
        span("a", 1.0, 4.0, Some(0)),
        span("b", 4.0, 6.0, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![3.0, 3.0, 2.0]);
}

#[test]
fn overlapping_children_are_counted_as_their_union() {
    // Jobs of two connections overlap: [1,5] ∪ [3,8] covers 7, not 9.
    let spans = [
        span("stream", 0.0, 10.0, None),
        span("job", 1.0, 5.0, Some(0)),
        span("job", 3.0, 8.0, Some(0)),
        span("job", 4.0, 4.5, Some(0)),
    ];
    assert_eq!(self_times(&spans)[0], 3.0);
}

#[test]
fn zero_length_spans_change_nothing() {
    let spans = [
        span("root", 2.0, 6.0, None),
        span("instant", 3.0, 3.0, Some(0)),
        span("empty", 5.0, 5.0, None),
    ];
    assert_eq!(self_times(&spans), vec![4.0, 0.0, 0.0]);
}

#[test]
fn a_child_is_clipped_to_its_parent() {
    // Recorded elsewhere and added late: the part outside the parent
    // must not make the parent's self time negative.
    let spans = [
        span("root", 1.0, 3.0, None),
        span("late", 2.0, 9.0, Some(0)),
    ];
    assert_eq!(self_times(&spans)[0], 1.0);
}

#[test]
fn self_times_sum_to_the_roots_duration() {
    let spans = [
        span("root", 0.0, 12.0, None),
        span("a", 0.5, 4.0, Some(0)),
        span("b", 1.0, 2.0, Some(1)),
        span("c", 6.0, 11.0, Some(0)),
        span("d", 6.0, 6.5, Some(3)),
    ];
    let total: f64 = self_times(&spans).iter().sum();
    assert!((total - 12.0).abs() < 1e-12, "{total}");
}

#[test]
fn recorder_nests_scopes_and_rolls_up_by_name() {
    let mut spans = Spans::on("w");
    spans.scope("outer", |sp| {
        sp.scope("inner", |_| {});
        sp.scope("inner", |_| {});
        sp.add_closed("job", 0.0, 0.0);
    });
    let got = spans.spans();
    assert_eq!(got.len(), 4);
    assert_eq!(got[0].parent, None);
    assert!(got[1..].iter().all(|s| s.parent == Some(0)));
    assert!(got.iter().all(|s| s.end >= s.start));
    let rows = rollup(got);
    let inner = rows.iter().find(|r| r.name == "inner").expect("inner row");
    assert_eq!(inner.calls, 2);
    // One line per span, each carrying the workload id.
    let jsonl = spans.to_jsonl();
    assert_eq!(jsonl.lines().count(), 4);
    assert!(jsonl.lines().all(|l| l.contains("\"workload\":\"w\"")));
}

#[test]
fn a_recorder_that_is_off_keeps_nothing() {
    let mut spans = Spans::off();
    let got = spans.scope("outer", |sp| sp.scope("inner", |_| 7));
    assert_eq!(got, 7);
    spans.add_closed("job", 0.0, 1.0);
    assert!(spans.spans().is_empty());
}
