//! `refs.json`: reference energies and exact counts for every parameter
//! point a seed can select, written by `fcix-perf update-refs` only when
//! two independent solver routes agree (see [`crate::refgen`]).
//!
//! The file is compiled in, so a timed run checks its energies by
//! lookup: no second solve, no file access, same answer from any
//! working directory.

use fci_obs::JsonValue;

use crate::inputs::{jitter_of_point, point_of_seed};

const TEXT: &str = include_str!("../refs.json");

/// Where `update-refs` writes (the source tree this binary was built from).
pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/refs.json");

/// Reference numbers of one parameter point, keyed like `c2.energy`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PointRefs(pub Vec<(String, f64)>);

impl PointRefs {
    /// The number stored under `key`.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// Store `value` under `key`.
    pub fn set(&mut self, key: &str, value: f64) {
        match self.0.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.0.push((key.to_string(), value)),
        }
    }
}

/// Parse a refs document: `{"points": [{key: number, …}, …]}`.
pub fn parse(text: &str) -> Result<Vec<PointRefs>, String> {
    let doc = JsonValue::parse(text)?;
    let points = doc
        .get("points")
        .and_then(JsonValue::as_arr)
        .ok_or("refs: no `points` array")?;
    points
        .iter()
        .map(|p| match p {
            JsonValue::Obj(pairs) => pairs
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|x| (k.clone(), x))
                        .ok_or(format!("refs: `{k}` is not a number"))
                })
                .collect::<Result<Vec<_>, _>>()
                .map(PointRefs),
            _ => Err("refs: a point is not an object".to_string()),
        })
        .collect()
}

/// Render a refs document, one point per line so diffs stay readable.
pub fn render(points: &[PointRefs]) -> String {
    let mut out = String::from("{\"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let obj = JsonValue::Obj(
            p.0.iter()
                .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
                .collect(),
        );
        out.push_str(&obj.to_string());
        out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

/// The jitter `u` of the parameter point `seed` selects, with that
/// point's compiled-in references.
pub fn for_seed(seed: u64) -> Result<(f64, PointRefs), String> {
    let point = point_of_seed(seed);
    let refs = parse(TEXT)?.into_iter().nth(point).ok_or(format!(
        "refs.json has no point {point}: run `fcix-perf update-refs`"
    ))?;
    Ok((jitter_of_point(point), refs))
}
