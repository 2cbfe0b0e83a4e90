//! Collapsed-stack (flamegraph) export of span traces.
//!
//! Folds the tracer's span events into Brendan Gregg's collapsed-stack
//! text format — one line per unique frame stack,
//!
//! ```text
//! rank 0;alpha_alpha;dgemm 143221
//! ```
//!
//! where the trailing integer is the stack's total weight in
//! microseconds of either simulated or host time ([`TimeBase`]). The
//! output feeds `flamegraph.pl` / speedscope / `inferno` unchanged, and
//! round-trips through [`parse_collapsed`] (which the test suite uses to
//! check that folded totals reproduce the per-category run summary).

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};

/// Which duration a span contributes to the fold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeBase {
    /// Simulated seconds (scaled to µs) — the Cray-X1 cost model.
    Sim,
    /// Host wall-clock microseconds — what this machine actually did.
    Host,
}

/// Fold span events into collapsed-stack lines, sorted by stack.
///
/// Each span becomes the stack `rank N;<phase>;<category>`; spans
/// without a rank fold under `rank ?`. Weights are rounded to whole
/// microseconds and identical stacks are summed; zero-weight stacks are
/// dropped.
pub fn to_collapsed(events: &[Event], base: TimeBase) -> String {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for e in events {
        if e.kind != EventKind::Span {
            continue;
        }
        let us = match base {
            TimeBase::Sim => e.sim_dur_s * 1e6,
            TimeBase::Host => e.host_dur_us,
        };
        let weight = us.round() as u64;
        if weight == 0 {
            continue;
        }
        let rank = match e.rank {
            Some(r) => format!("rank {r}"),
            None => "rank ?".to_string(),
        };
        let stack = format!("{rank};{};{}", e.name, e.cat.as_str());
        *stacks.entry(stack).or_insert(0) += weight;
    }
    let mut out = String::new();
    for (stack, weight) in stacks {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&weight.to_string());
        out.push('\n');
    }
    out
}

/// Parse collapsed-stack text back into `(frames, weight)` pairs.
///
/// Accepts exactly the format [`to_collapsed`] emits (and the wider
/// ecosystem convention): `frame;frame;... <integer>` per line, blank
/// lines ignored.
// lint: allow(dead) — the reader the flame round-trip test checks `to_collapsed` with
pub fn parse_collapsed(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let (stack, weight) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no weight field", lineno + 1))?;
        let weight: u64 = weight
            .parse()
            .map_err(|_| format!("line {}: bad weight `{weight}`", lineno + 1))?;
        if stack.is_empty() {
            return Err(format!("line {}: empty stack", lineno + 1));
        }
        out.push((stack.split(';').map(str::to_string).collect(), weight));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Category;
    use crate::tracer::{Segment, Tracer};

    fn traced_run() -> Vec<Event> {
        let t = Tracer::in_memory();
        for rank in 0..2 {
            t.record_phase(
                rank,
                "alpha_alpha",
                &[
                    Segment::new(Category::Dgemm, 1.5 + rank as f64, vec![]),
                    Segment::new(Category::Net, 0.25, vec![]),
                ],
                0.0,
                100.0,
            );
        }
        t.barrier(2);
        for rank in 0..2 {
            t.record_phase(
                rank,
                "alpha_alpha",
                &[Segment::new(Category::Dgemm, 0.5, vec![])],
                100.0,
                50.0,
            );
        }
        t.events().unwrap()
    }

    #[test]
    fn fold_aggregates_identical_stacks() {
        let events = traced_run();
        let folded = to_collapsed(&events, TimeBase::Sim);
        // rank 0 dgemm: 1.5 s + 0.5 s = 2 000 000 µs on one line.
        assert!(folded.contains("rank 0;alpha_alpha;dgemm 2000000\n"));
        assert!(folded.contains("rank 1;alpha_alpha;dgemm 3000000\n"));
        assert!(folded.contains("rank 0;alpha_alpha;net 250000\n"));
    }

    #[test]
    fn round_trip_preserves_totals() {
        let events = traced_run();
        for base in [TimeBase::Sim, TimeBase::Host] {
            let folded = to_collapsed(&events, base);
            let parsed = parse_collapsed(&folded).unwrap();
            let total: u64 = parsed.iter().map(|(_, w)| w).sum();
            let want: f64 = events
                .iter()
                .filter(|e| e.kind == EventKind::Span)
                .map(|e| match base {
                    TimeBase::Sim => e.sim_dur_s * 1e6,
                    TimeBase::Host => e.host_dur_us,
                })
                .sum();
            // Each span rounds to whole µs once.
            let slack = events.len() as f64;
            assert!((total as f64 - want).abs() <= slack, "{total} vs {want}");
            for (frames, _) in &parsed {
                assert_eq!(frames.len(), 3);
                assert!(frames[0].starts_with("rank "));
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_collapsed("no-weight-here\n").is_err());
        assert!(parse_collapsed("a;b notanumber\n").is_err());
        assert!(parse_collapsed(" 5\n").is_err());
        assert_eq!(parse_collapsed("\n\n").unwrap().len(), 0);
    }
}
