//! The catalogue in `src/metrics.rs`, the declaration in
//! `/BENCHMARK.json` and what the binary prints are one set of names.

use fci_obs::JsonValue;
use fcix_perf::metrics::{result_line, MetricDef, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use fcix_perf::noise::parse_result_line;

fn declaration() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 << 10, "BENCHMARK.json over 64 KiB");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn names(list: &JsonValue) -> Vec<String> {
    list.as_arr()
        .expect("an array")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_name_is_well_formed_and_used_once() {
    let mut all: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    all.extend(END_TO_END.iter().map(|d| d.name));
    all.extend(PER_LAYER.iter().map(|d| d.name));
    for n in &all {
        assert!(well_formed(n), "bad name `{n}`");
    }
    let mut sorted = all.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "a name is used twice");
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        assert!(
            !d.unit.is_empty() && d.unit.len() <= 16 && d.unit.chars().all(ok),
            "{}",
            d.unit
        );
    }
    for (w, why) in WORKLOADS {
        assert!(!why.contains('\n'), "{w}: why must be one line");
    }
}

#[test]
fn benchmark_json_declares_exactly_the_catalogue() {
    let doc = declaration();
    let declared: Vec<String> = names(doc.get("workloads").expect("workloads"));
    let ours: Vec<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(declared, ours);
    for (list, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let entries = doc.get(list).and_then(JsonValue::as_arr).expect(list);
        assert_eq!(entries.len(), defs.len(), "{list}");
        for (entry, def) in entries.iter().zip(defs) {
            let text = |k: &str| entry.get(k).and_then(JsonValue::as_str).map(str::to_string);
            assert_eq!(text("name").as_deref(), Some(def.name));
            assert_eq!(text("unit").as_deref(), Some(def.unit), "{}", def.name);
            assert_eq!(
                text("better").as_deref(),
                Some(def.better.as_str()),
                "{}",
                def.name
            );
            assert_eq!(entry.get_f64("bound"), def.bound, "{}", def.name);
        }
    }
    for w in doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads")
    {
        let why = w.get("why").and_then(JsonValue::as_str).expect("why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s");
    assert_eq!(setup.unit, "s");
    assert!(END_TO_END
        .iter()
        .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
    assert!(
        END_TO_END.iter().all(|d| d.bound <= setup.bound),
        "setup_s has the largest bound"
    );
}

fn printed(defs: &[MetricDef]) -> Vec<String> {
    // What a run prints: the result line of an outcome, whatever was
    // measured — unmeasured layers appear as 0, nothing else appears.
    let mut out = Outcome {
        attempted: 3,
        ..Outcome::default()
    };
    out.values.set(defs[0].name, 1.25);
    let (metrics, failed) = parse_result_line(&result_line(defs, &out)).expect("parses");
    assert_eq!(failed, 0);
    metrics.into_iter().map(|(n, _)| n).collect()
}

#[test]
fn the_printed_metric_set_is_the_declared_set() {
    let doc = declaration();
    assert_eq!(
        printed(&END_TO_END),
        names(doc.get("end_to_end").expect("end_to_end"))
    );
    assert_eq!(
        printed(&PER_LAYER),
        names(doc.get("per_layer").expect("per_layer"))
    );
}

#[test]
fn the_result_line_has_exactly_the_four_keys() {
    let mut out = Outcome {
        attempted: 2,
        failed: 1,
        ..Outcome::default()
    };
    out.values.set("solve_s", 7.5);
    let doc = JsonValue::parse(&result_line(&END_TO_END, &out)).expect("parses");
    let JsonValue::Obj(pairs) = &doc else {
        panic!("not an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(false)));
    let solve = doc
        .get("metrics")
        .and_then(|m| m.get("solve_s"))
        .expect("solve_s");
    assert_eq!(solve.get_f64("value"), Some(7.5));
    assert_eq!(solve.get("unit").and_then(JsonValue::as_str), Some("s"));
}
