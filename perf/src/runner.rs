//! Measurement helpers every workload shares: repetition within a time
//! budget, repeated set-up, probes with spans, peak memory.

use crate::clock::{now_s, timed};
use crate::metrics::Outcome;
use crate::refs::PointRefs;
use crate::span::Spans;
use crate::stats::{fastest, median};

/// Fewest timed repetitions of a workload's unit: two, so that exact
/// counts can be compared between repetitions.
pub const MIN_REPS: usize = 2;
/// Most timed repetitions, however short the unit.
pub const MAX_REPS: usize = 4;
/// Calls behind every per-layer timing.
pub const PROBE_CALLS: usize = 7;

/// Run `f` repeatedly for about `seconds`: at least [`MIN_REPS`] times,
/// then for as long as one more repetition of average length still fits,
/// up to [`MAX_REPS`]. Returns each result with its host seconds.
///
/// A tighter budget cuts repetitions; it never shrinks the problem.
pub fn repeat_within<T>(seconds: f64, mut f: impl FnMut() -> T) -> Vec<(T, f64)> {
    let t0 = now_s();
    let mut reps = Vec::new();
    loop {
        reps.push(timed(&mut f));
        let used = now_s() - t0;
        let fits = used + used / reps.len() as f64 <= seconds;
        if reps.len() >= MAX_REPS || (reps.len() >= MIN_REPS && !fits) {
            return reps;
        }
    }
}

/// Add set-up samples to `times`: at least `min_calls` of them, and more
/// (up to `max_calls`) until `min_total` seconds have been measured, so
/// that a sub-millisecond set-up is not reported from a handful of
/// samples. A set-up of half a second or more is sampled once. Returns
/// the last thing `f` built.
fn sample_setups<T>(
    f: &mut impl FnMut() -> T,
    times: &mut Vec<f64>,
    min_calls: usize,
    min_total: f64,
    max_calls: usize,
) -> T {
    let (mut last, first) = timed(&mut *f);
    let mut taken = vec![first];
    while first < 0.5
        && (taken.len() < min_calls
            || (taken.iter().sum::<f64>() < min_total && taken.len() < max_calls))
    {
        let (r, t) = timed(&mut *f);
        last = r;
        taken.push(t);
    }
    times.append(&mut taken);
    last
}

/// The measuring loop of a solve workload: set up, then repeat the solve
/// for about `seconds` as [`repeat_within`] does. Set-up is sampled in a
/// burst before the first solve ([`PROBE_CALLS`] calls or 50 ms) and
/// again, briefly, after every repetition: a neighbour's busy spell
/// lasts seconds, so samples spread over the whole run find a quiet
/// moment where one burst may not.
///
/// Returns each solve's result with its seconds, and every set-up time.
pub fn measure<P, S>(
    seconds: f64,
    mut set_up: impl FnMut() -> P,
    mut solve: impl FnMut(&P) -> S,
) -> (Vec<(S, f64)>, Vec<f64>) {
    let mut setups = Vec::new();
    let prep = sample_setups(&mut set_up, &mut setups, PROBE_CALLS, 0.05, 200);
    let solves = repeat_within(seconds, || {
        let rep = timed(|| solve(&prep));
        sample_setups(&mut set_up, &mut setups, 2, 0.02, 50);
        rep
    });
    // The outer timing includes the set-up samples; the inner is the solve.
    (solves.into_iter().map(|(rep, _)| rep).collect(), setups)
}

/// Book a run's end-to-end metrics: `setup_s` and `solve_s` are the
/// **fastest** of their samples — interference on a shared box only ever
/// adds time, so the fastest of a few repeats better from run to run
/// than their median (README, "Noise") — and the note lines carry every
/// repetition, so the spread is on record.
pub fn book_end_to_end(out: &mut Outcome, setups: &[f64], solves: &[f64]) -> Result<(), String> {
    out.notes.push(format!(
        "setup_s: fastest of {} set-ups, median {:.6} s, slowest {:.6} s",
        setups.len(),
        median(setups),
        setups.iter().copied().fold(0.0, f64::max)
    ));
    out.notes.push(format!(
        "solve_s: fastest of {} repetitions {solves:?}",
        solves.len()
    ));
    out.values.set("setup_s", fastest(setups));
    out.values.set("solve_s", fastest(solves));
    out.values.set("peak_rss_mb", peak_rss_mib()?);
    Ok(())
}

/// Median host seconds of [`PROBE_CALLS`] calls of `f`, each one a span
/// called `name`.
pub fn probe<R>(spans: &mut Spans, name: &str, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..PROBE_CALLS)
        .map(|_| spans.scope(name, |_| timed(&mut f).1))
        .collect();
    median(&times)
}

/// Like [`probe`], for calls too short to time singly: each of the
/// [`PROBE_CALLS`] samples times `batch` calls and divides.
pub fn probe_batch<R>(
    spans: &mut Spans,
    name: &str,
    batch: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    probe(spans, name, || {
        for _ in 0..batch {
            std::hint::black_box(f());
        }
    }) / batch as f64
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// `a / b − 1`, the relative overhead of `a` over `b`.
pub fn overhead(a: f64, b: f64) -> f64 {
    a / b - 1.0
}

/// Overhead of a traced unit over its untraced twin from `pairs`
/// interleaved pairs (plain, traced, plain, traced, …): the median ratio
/// − 1, booked under `metric` with every ratio in a note. `first_plain`
/// is an untraced time already in hand, so the first pair costs one run.
pub fn paired_overhead(
    out: &mut Outcome,
    metric: &'static str,
    pairs: usize,
    first_plain: f64,
    mut plain: impl FnMut() -> Result<f64, String>,
    mut traced: impl FnMut() -> Result<f64, String>,
) -> Result<(), String> {
    let mut ratios = Vec::new();
    for k in 0..pairs.max(1) {
        let base = if k == 0 { first_plain } else { plain()? };
        ratios.push(traced()? / base);
    }
    out.values.set(metric, median(&ratios) - 1.0);
    out.notes.push(format!(
        "{metric}: median of {} pairs, ratios {ratios:?}",
        ratios.len()
    ));
    Ok(())
}

/// Book the repetitions of a solve workload into `out`. `why[i]` holds
/// the reasons repetition `i` failed (none = it passed) and `counts[i]`
/// its exact counts. A count that differs between repetitions is a
/// failed operation; one that differs from `refs.json` (keys
/// `<key>.<count name>`) is a note — the modelled algorithm changed, or
/// the CPU did.
pub fn judge_repetitions(
    out: &mut Outcome,
    workload: &str,
    key: &str,
    why: Vec<Vec<String>>,
    counts: &[Vec<(&'static str, f64)>],
    refs: &PointRefs,
) {
    out.attempted += why.len();
    out.failed += why.iter().filter(|w| !w.is_empty()).count();
    out.notes.extend(why.into_iter().flatten());
    for other in &counts[1..] {
        for ((name, a), (_, b)) in counts[0].iter().zip(other) {
            if a.to_bits() != b.to_bits() {
                out.failed = out.failed.max(1);
                out.notes.push(format!(
                    "{workload}: exact count {name} differs between repetitions ({a} vs {b})"
                ));
            }
        }
    }
    for (name, v) in &counts[0] {
        match refs.get(&format!("{key}.{name}")) {
            Some(r) if r.to_bits() != v.to_bits() => out.notes.push(format!(
                "{workload}: exact count {name} = {v}, refs.json has {r}"
            )),
            _ => {}
        }
    }
}
