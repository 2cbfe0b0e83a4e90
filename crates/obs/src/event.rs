//! The trace event model.

use crate::json::JsonValue;

/// What kind of record an [`Event`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A duration: a slice of one virtual MSP's timeline.
    Span,
    /// A point event (task grab, iteration marker, …).
    Instant,
    /// A counter sample (bytes moved by one DDI op, …).
    Counter,
}

impl EventKind {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Instant => "instant",
            EventKind::Counter => "counter",
        }
    }

    /// Parse a wire name.
    pub fn from_wire(s: &str) -> Option<EventKind> {
        match s {
            "span" => Some(EventKind::Span),
            "instant" => Some(EventKind::Instant),
            "counter" => Some(EventKind::Counter),
            _ => None,
        }
    }
}

/// Cost category of a span — mirrors the simulated [`Clock`]'s time split
/// and therefore the rows of the paper's Table 3.
///
/// [`Clock`]: https://docs.rs/fci-xsim
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// DGEMM-class compute.
    Dgemm,
    /// DAXPY/indexed + scalar-unit compute.
    Daxpy,
    /// Vector gather/scatter and local copies.
    Gather,
    /// Network transfers.
    Net,
    /// Remote mutex acquisition.
    Lock,
    /// Disk I/O.
    Io,
    /// Anything else (markers, solver structure, DDI ops).
    Other,
}

impl Category {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Dgemm => "dgemm",
            Category::Daxpy => "daxpy",
            Category::Gather => "gather",
            Category::Net => "net",
            Category::Lock => "lock",
            Category::Io => "io",
            Category::Other => "other",
        }
    }

    /// Parse a wire name (unknown names map to [`Category::Other`], which
    /// no Table 3 row counts).
    pub fn from_wire(s: &str) -> Category {
        match s {
            "dgemm" => Category::Dgemm,
            "daxpy" => Category::Daxpy,
            "gather" => Category::Gather,
            "net" => Category::Net,
            "lock" => Category::Lock,
            "io" => Category::Io,
            _ => Category::Other,
        }
    }
}

/// What an injected fault was: the `kind` code a `fault_injected` instant
/// carries and the `kind` label of the `fault.injected` counter. Every
/// emitter and the metrics replay read this one table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A dropped or corrupted transfer, resent after a backoff.
    Transient = 0,
    /// A duplicated delivery, discarded by sequence number.
    Duplicate = 1,
    /// A delayed `DDI_ACC` fence.
    FenceDelay = 2,
    /// A code this table does not name, or no code at all.
    Other = 3,
    /// A stalled `nxtval` counter operation.
    NxtvalStall = 4,
    /// A σ task whose working area was poisoned.
    PoisonedTask = 5,
}

impl FaultKind {
    /// The instant's `kind` code.
    pub fn code(self) -> f64 {
        self as u8 as f64
    }

    /// The counter's `kind` label.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Duplicate => "duplicate",
            FaultKind::FenceDelay => "fence_delay",
            FaultKind::Other => "other",
            FaultKind::NxtvalStall => "nxtval_stall",
            FaultKind::PoisonedTask => "poisoned_task",
        }
    }

    /// The kind an instant's `kind` code names.
    pub(crate) fn from_code(code: Option<f64>) -> FaultKind {
        match code.map(|c| c as i64) {
            Some(0) => FaultKind::Transient,
            Some(1) => FaultKind::Duplicate,
            Some(2) => FaultKind::FenceDelay,
            Some(4) => FaultKind::NxtvalStall,
            Some(5) => FaultKind::PoisonedTask,
            _ => FaultKind::Other,
        }
    }
}

/// Bound on the `rank` a parsed record may carry: far above any MSP count
/// a run uses (the paper's largest is 432), low enough that per-rank
/// tables sized by it stay small.
const MAX_RANK: usize = 1 << 20;

/// One trace record with **dual timestamps**: host wall-clock microseconds
/// since the trace epoch, and simulated seconds from the active `Clock`.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Record kind.
    pub kind: EventKind,
    /// Name, e.g. `"beta_beta"`, `"task_grab"`, `"ddi_acc"`.
    pub name: String,
    /// Cost category.
    pub cat: Category,
    /// Virtual MSP (rank); `None` = run-global.
    pub rank: Option<usize>,
    /// Host wall-clock timestamp, µs since the tracer epoch.
    pub host_us: f64,
    /// Host duration, µs (spans only; 0 otherwise).
    pub host_dur_us: f64,
    /// Simulated start time, seconds since the start of the run.
    pub sim_s: f64,
    /// Simulated duration, seconds (spans only; 0 otherwise).
    pub sim_dur_s: f64,
    /// Numeric payload (bytes, flops, task ids/sizes, energies, …).
    pub args: Vec<(String, f64)>,
}

impl Event {
    /// Value of a named argument.
    pub fn arg(&self, name: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Serialize as one JSONL record.
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("ev".to_string(), JsonValue::Str(self.kind.as_str().into())),
            ("name".to_string(), JsonValue::Str(self.name.clone())),
            ("cat".to_string(), JsonValue::Str(self.cat.as_str().into())),
        ];
        if let Some(r) = self.rank {
            pairs.push(("rank".to_string(), JsonValue::Num(r as f64)));
        }
        pairs.push(("host_us".to_string(), JsonValue::Num(self.host_us)));
        if self.kind == EventKind::Span {
            pairs.push(("host_dur_us".to_string(), JsonValue::Num(self.host_dur_us)));
        }
        pairs.push(("sim_s".to_string(), JsonValue::Num(self.sim_s)));
        if self.kind == EventKind::Span {
            pairs.push(("sim_dur_s".to_string(), JsonValue::Num(self.sim_dur_s)));
        }
        if !self.args.is_empty() {
            pairs.push((
                "args".to_string(),
                JsonValue::Obj(
                    self.args
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
                        .collect(),
                ),
            ));
        }
        JsonValue::Obj(pairs)
    }

    /// Parse one JSONL record.
    pub fn from_json(v: &JsonValue) -> Result<Event, String> {
        let kind = v
            .get("ev")
            .and_then(JsonValue::as_str)
            .and_then(EventKind::from_wire)
            .ok_or("missing/bad 'ev'")?;
        let name = v
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("missing 'name'")?
            .to_string();
        let cat = Category::from_wire(v.get("cat").and_then(JsonValue::as_str).unwrap_or("other"));
        let rank = match v.get_f64("rank") {
            Some(r) if r >= 0.0 && r < MAX_RANK as f64 && r.fract() == 0.0 => Some(r as usize),
            Some(r) => return Err(format!("'rank' {r} is not an integer in 0..{MAX_RANK}")),
            None => None,
        };
        let args = match v.get("args") {
            Some(JsonValue::Obj(pairs)) => pairs
                .iter()
                .filter_map(|(k, val)| val.as_f64().map(|x| (k.clone(), x)))
                .collect(),
            _ => Vec::new(),
        };
        Ok(Event {
            kind,
            name,
            cat,
            rank,
            host_us: v.get_f64("host_us").unwrap_or(0.0),
            host_dur_us: v.get_f64("host_dur_us").unwrap_or(0.0),
            sim_s: v.get_f64("sim_s").unwrap_or(0.0),
            sim_dur_s: v.get_f64("sim_dur_s").unwrap_or(0.0),
            args,
        })
    }
}

/// Parse a whole JSONL trace (empty lines skipped), tolerating a
/// truncated final record — the common shape of a trace from a crashed
/// or killed run, where the last buffered line was cut mid-write.
///
/// A parse error on the *last* non-empty line yields the events parsed so
/// far plus a warning string; an error anywhere earlier is still a hard
/// error (the file is corrupt, not merely truncated).
pub fn parse_jsonl_lenient(text: &str) -> Result<(Vec<Event>, Option<String>), String> {
    let last_nonempty = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .last()
        .map(|(i, _)| i);
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parsed = JsonValue::parse(line)
            .map_err(|e| e.to_string())
            .and_then(|v| Event::from_json(&v));
        match parsed {
            Ok(e) => out.push(e),
            Err(e) if Some(i) == last_nonempty => {
                return Ok((out, Some(format!("line {}: {e} (truncated trace?)", i + 1))));
            }
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok((out, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Event {
        Event {
            kind: EventKind::Span,
            name: "beta_beta".into(),
            cat: Category::Dgemm,
            rank: Some(7),
            host_us: 1234.5,
            host_dur_us: 99.0,
            sim_s: 0.25,
            sim_dur_s: 1.5,
            args: vec![("flops".into(), 2.0e9), ("bytes".into(), 0.0)],
        }
    }

    #[test]
    fn event_json_roundtrip() {
        let e = sample();
        let back = Event::from_json(&e.to_json()).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn jsonl_roundtrip() {
        let evs = vec![
            sample(),
            Event {
                kind: EventKind::Instant,
                name: "task_grab".into(),
                cat: Category::Other,
                rank: None,
                host_us: 1.0,
                host_dur_us: 0.0,
                sim_s: 0.0,
                sim_dur_s: 0.0,
                args: vec![],
            },
        ];
        let text: String = evs.iter().map(|e| e.to_json().to_string() + "\n").collect();
        let (back, warn) = parse_jsonl_lenient(&text).unwrap();
        assert_eq!(evs, back);
        assert!(warn.is_none());
    }

    #[test]
    fn lenient_parse_tolerates_truncated_tail() {
        let good = sample().to_json().to_string();
        let text = format!("{good}\n{good}\n{{\"ev\":\"span\",\"na");
        let (events, warn) = parse_jsonl_lenient(&text).unwrap();
        assert_eq!(events.len(), 2);
        assert!(warn.unwrap().contains("truncated"));
        // A corrupt line in the middle is still fatal.
        let text = format!("{good}\nnot json\n{good}\n");
        assert!(parse_jsonl_lenient(&text).is_err());
        // Clean input: no warning.
        let (events, warn) = parse_jsonl_lenient(&format!("{good}\n")).unwrap();
        assert_eq!(events.len(), 1);
        assert!(warn.is_none());
        // Empty input: no events, no warning, no error.
        let (events, warn) = parse_jsonl_lenient("").unwrap();
        assert!(events.is_empty() && warn.is_none());
    }

    #[test]
    fn rank_must_be_a_bounded_integer() {
        let good = sample().to_json().to_string();
        let line = |rank: &str| {
            format!(r#"{{"ev":"span","name":"bb","cat":"dgemm","rank":{rank},"sim_dur_s":1.0}}"#)
        };
        let top = (MAX_RANK - 1).to_string();
        let (events, warn) = parse_jsonl_lenient(&line(&top)).unwrap();
        assert_eq!(events[0].rank, Some(MAX_RANK - 1));
        assert!(warn.is_none());
        for bad in ["1e15", "-1", "2.5", &MAX_RANK.to_string()] {
            // Mid-file: an error naming the line.
            let text = format!("{good}\n{}\n{good}\n", line(bad));
            let err = parse_jsonl_lenient(&text).unwrap_err();
            assert!(err.starts_with("line 2:") && err.contains("rank"), "{err}");
            // Last line: dropped with a warning naming it.
            let text = format!("{good}\n{}\n", line(bad));
            let (events, warn) = parse_jsonl_lenient(&text).unwrap();
            assert_eq!(events.len(), 1);
            assert!(warn.unwrap().starts_with("line 2:"));
        }
    }

    #[test]
    fn category_names_roundtrip() {
        for c in [
            Category::Dgemm,
            Category::Daxpy,
            Category::Gather,
            Category::Net,
            Category::Lock,
            Category::Io,
            Category::Other,
        ] {
            assert_eq!(Category::from_wire(c.as_str()), c);
        }
        assert_eq!(Category::from_wire("nonsense"), Category::Other);
    }
}
