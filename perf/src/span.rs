//! The benchmark's own spans: one around every public call it makes
//! into the crates (set-up steps, solves, replay calls), kept in memory
//! and written out when the run ends.
//!
//! A disabled recorder does nothing, which is how the untraced run that
//! produces the end-to-end metrics stays free of tracing cost. Spans
//! inside the program are a later change (ROADMAP item 5).

use crate::clock::now_s;
use fci_obs::JsonValue;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.solve_prepared`.
    pub name: String,
    /// Host seconds (process clock) at entry.
    pub start: f64,
    /// Host seconds at exit.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder for one workload run.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    workload: String,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// Recorder that keeps nothing.
    pub fn off() -> Spans {
        Spans {
            on: false,
            workload: String::new(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Recorder for `workload` (the identifier every span shares).
    pub fn on(workload: &str) -> Spans {
        Spans {
            on: true,
            workload: workload.to_string(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`; spans opened by `f` through
    /// the recorder it is handed become children.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: now_s(),
            end: f64::NAN,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end = now_s();
        r
    }

    /// Record an interval measured elsewhere (a client thread's job) as
    /// a child of the span currently open.
    pub fn add_closed(&mut self, name: &str, start: f64, end: f64) {
        if self.on {
            self.spans.push(Span {
                name: name.to_string(),
                start,
                end,
                parent: self.stack.last().copied(),
            });
        }
    }

    /// Everything recorded so far, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: name, start, end, parent, workload.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = JsonValue::obj(vec![
                ("id", JsonValue::Num(id as f64)),
                ("name", JsonValue::Str(s.name.clone())),
                ("start_s", JsonValue::Num(s.start)),
                ("end_s", JsonValue::Num(s.end)),
                (
                    "parent",
                    s.parent
                        .map_or(JsonValue::Null, |p| JsonValue::Num(p as f64)),
                ),
                ("workload", JsonValue::Str(self.workload.clone())),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children may overlap each other (jobs of
/// two client connections), so the covered part is the length of the
/// union of the child intervals clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start.max(spans[p].start);
            let hi = s.end.min(spans[p].end);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// One row of the breakdown: a span name with its call count, summed
/// duration and summed self time.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Span name.
    pub name: String,
    /// Spans with this name.
    pub calls: usize,
    /// Sum of durations, seconds.
    pub total_s: f64,
    /// Sum of self times, seconds.
    pub self_s: f64,
}

/// Roll spans up by name, in first-seen order.
pub fn rollup(spans: &[Span]) -> Vec<Row> {
    let selfs = self_times(spans);
    let mut rows: Vec<Row> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        let row = match rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => r,
            None => {
                rows.push(Row {
                    name: s.name.clone(),
                    calls: 0,
                    total_s: 0.0,
                    self_s: 0.0,
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.calls += 1;
        row.total_s += s.end - s.start;
        row.self_s += own;
    }
    rows
}

/// The Table-3-shaped text breakdown: one line per span name with
/// calls, total, self time and self time as a share of the traced run.
pub fn breakdown_table(spans: &[Span]) -> String {
    let rows = rollup(spans);
    let whole: f64 = rows.iter().map(|r| r.self_s).sum();
    let mut out = format!(
        "{:<34} {:>6} {:>12} {:>12} {:>7}\n",
        "span", "calls", "total s", "self s", "self %"
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<34} {:>6} {:>12.6} {:>12.6} {:>6.1}%\n",
            r.name,
            r.calls,
            r.total_s,
            r.self_s,
            if whole > 0.0 {
                100.0 * r.self_s / whole
            } else {
                0.0
            }
        ));
    }
    out
}
