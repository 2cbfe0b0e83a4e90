//! Chrome Trace Event Format export.
//!
//! Converts a trace into the JSON array format understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): one process
//! (`pid` 0, named "fcix (simulated Cray-X1)"), one thread lane per
//! virtual MSP (`tid` = rank), spans as complete (`"ph":"X"`) events and
//! instants as `"ph":"i"`. Timestamps are **simulated** microseconds, so
//! the rendered timeline is the modelled X1 run, with the host timestamps
//! preserved in each event's `args`.

use crate::event::{Event, EventKind};
use crate::json::JsonValue;

fn args_json(e: &Event) -> JsonValue {
    let mut pairs: Vec<(String, JsonValue)> = e
        .args
        .iter()
        .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
        .collect();
    pairs.push(("host_us".to_string(), JsonValue::Num(e.host_us)));
    if e.kind == EventKind::Span {
        pairs.push(("host_dur_us".to_string(), JsonValue::Num(e.host_dur_us)));
    }
    JsonValue::Obj(pairs)
}

/// Convert events to a Trace Event Format JSON document.
pub fn to_chrome(events: &[Event]) -> String {
    let mut records: Vec<JsonValue> = Vec::new();
    records.push(JsonValue::obj(vec![
        ("name", JsonValue::Str("process_name".into())),
        ("ph", JsonValue::Str("M".into())),
        ("pid", JsonValue::Num(0.0)),
        (
            "args",
            JsonValue::obj(vec![(
                "name",
                JsonValue::Str("fcix (simulated Cray-X1)".into()),
            )]),
        ),
    ]));

    let mut ranks: Vec<usize> = events.iter().filter_map(|e| e.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    for r in &ranks {
        records.push(JsonValue::obj(vec![
            ("name", JsonValue::Str("thread_name".into())),
            ("ph", JsonValue::Str("M".into())),
            ("pid", JsonValue::Num(0.0)),
            ("tid", JsonValue::Num(*r as f64)),
            (
                "args",
                JsonValue::obj(vec![("name", JsonValue::Str(format!("MSP {r}")))]),
            ),
        ]));
    }

    for e in events {
        let tid = e.rank.unwrap_or(0) as f64;
        let name = format!("{} [{}]", e.name, e.cat.as_str());
        match e.kind {
            EventKind::Span => records.push(JsonValue::obj(vec![
                ("name", JsonValue::Str(name)),
                ("cat", JsonValue::Str(e.cat.as_str().into())),
                ("ph", JsonValue::Str("X".into())),
                ("pid", JsonValue::Num(0.0)),
                ("tid", JsonValue::Num(tid)),
                ("ts", JsonValue::Num(e.sim_s * 1e6)),
                ("dur", JsonValue::Num(e.sim_dur_s * 1e6)),
                ("args", args_json(e)),
            ])),
            EventKind::Instant => records.push(JsonValue::obj(vec![
                ("name", JsonValue::Str(name)),
                ("cat", JsonValue::Str(e.cat.as_str().into())),
                ("ph", JsonValue::Str("i".into())),
                // Thread-scoped instant marker.
                ("s", JsonValue::Str("t".into())),
                ("pid", JsonValue::Num(0.0)),
                ("tid", JsonValue::Num(tid)),
                ("ts", JsonValue::Num(e.sim_s * 1e6)),
                ("args", args_json(e)),
            ])),
            EventKind::Counter => records.push(JsonValue::obj(vec![
                ("name", JsonValue::Str(e.name.clone())),
                ("ph", JsonValue::Str("C".into())),
                ("pid", JsonValue::Num(0.0)),
                ("tid", JsonValue::Num(tid)),
                ("ts", JsonValue::Num(e.sim_s * 1e6)),
                ("args", args_json(e)),
            ])),
        }
    }

    JsonValue::Arr(records).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Category;
    use crate::tracer::{Segment, Tracer};

    #[test]
    fn chrome_export_is_valid_json_with_lanes() {
        let t = Tracer::in_memory();
        t.record_phase(
            0,
            "sigma",
            &[Segment::new(Category::Dgemm, 1.0, vec![])],
            0.0,
            0.0,
        );
        t.record_phase(
            1,
            "sigma",
            &[Segment::new(Category::Net, 0.5, vec![])],
            0.0,
            0.0,
        );
        t.instant(Some(1), "task_grab", Category::Other, &[("task", 3.0)]);
        let text = to_chrome(&t.events().unwrap());

        let doc = JsonValue::parse(&text).unwrap();
        let arr = doc.as_arr().unwrap();
        // Metadata: process_name + 2 thread_name; payload: 2 spans, the
        // 2 `rank_busy` instants that close them, and 1 instant.
        assert_eq!(arr.len(), 8);
        let spans: Vec<_> = arr
            .iter()
            .filter(|r| r.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get_f64("ts"), Some(0.0));
        assert_eq!(spans[0].get_f64("dur"), Some(1e6));
        // One lane per MSP.
        let tids: Vec<f64> = arr.iter().filter_map(|r| r.get_f64("tid")).collect();
        assert!(tids.contains(&0.0) && tids.contains(&1.0));
        // Instants carry the required scope field.
        let inst = arr
            .iter()
            .find(|r| r.get("ph").and_then(JsonValue::as_str) == Some("i"))
            .unwrap();
        assert_eq!(inst.get("s").and_then(JsonValue::as_str), Some("t"));
    }
}
