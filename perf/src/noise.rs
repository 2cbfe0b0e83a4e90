//! `fcix-perf noise`: the A/A check. The same code is measured in two
//! sets of runs; the difference between the sets' medians is this
//! machine's noise floor, and a bound below it can never hold.

use fci_obs::JsonValue;

use crate::metrics::MetricDef;
use crate::stats::{iqr_share, median, quartiles};

/// One end-to-end metric of one workload, compared across two sets.
#[derive(Clone, Debug)]
pub struct Row {
    /// Metric name.
    pub metric: &'static str,
    /// Median of each set.
    pub medians: [f64; 2],
    /// First and third quartile of each set.
    pub quartiles: [(f64, f64); 2],
    /// Larger of the two sets' interquartile ranges, as a share of that
    /// set's median.
    pub spread: f64,
    /// `|median B − median A| / median A`.
    pub difference: f64,
    /// The metric's declared bound.
    pub bound: f64,
}

impl Row {
    /// The two sets' medians agree within the bound. (The spread is
    /// printed beside it; it says how much of the bound is noise.)
    pub fn within_bound(&self) -> bool {
        self.difference <= self.bound
    }
}

/// Compare two sets of runs of one metric (each at least two values).
pub fn compare(def: &MetricDef, a: &[f64], b: &[f64]) -> Row {
    let medians = [median(a), median(b)];
    let quartiles = [quartiles(a), quartiles(b)];
    let spread = iqr_share(a).max(iqr_share(b));
    Row {
        metric: def.name,
        medians,
        quartiles,
        spread,
        difference: (medians[1] - medians[0]).abs() / medians[0],
        bound: def.bound.unwrap_or(f64::INFINITY),
    }
}

/// The `metrics` of a result line, as `(name, value)` pairs, with the
/// line's `failed` count.
pub fn parse_result_line(line: &str) -> Result<(Vec<(String, f64)>, usize), String> {
    let doc = JsonValue::parse(line.trim())?;
    let failed = doc.get_f64("failed").ok_or("result line has no `failed`")? as usize;
    let metrics = match doc.get("metrics") {
        Some(JsonValue::Obj(pairs)) => pairs
            .iter()
            .map(|(name, m)| {
                m.get_f64("value")
                    .map(|v| (name.clone(), v))
                    .ok_or(format!("metric `{name}` has no value"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("result line has no `metrics` object".into()),
    };
    Ok((metrics, failed))
}
