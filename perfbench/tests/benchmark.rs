//! The benchmark's own checks: `BENCHMARK.json` agrees with the metric
//! tables in the code, and a short run of each workload passes its
//! correctness checks.

use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use polite_wifi_obs::json::{parse, JsonValue};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

fn benchmark_json() -> JsonValue {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    parse(&text).unwrap()
}

fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key).and_then(JsonValue::as_array).unwrap()
}

fn field<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
    entry.get(key).and_then(JsonValue::as_str).unwrap()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let e2e = entries(&doc, "end_to_end");
    assert!(e2e.len() <= 16);
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, want) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(entry, "name"), want.name);
        assert_eq!(field(entry, "unit"), want.unit);
        assert_eq!(field(entry, "better"), want.better);
        let bound = entry.get("bound").and_then(JsonValue::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", want.name);
    }
    let setup_bound = e2e[0].get("bound").and_then(JsonValue::as_f64).unwrap();
    assert_eq!(END_TO_END[0].name, "setup_s");
    assert!(e2e
        .iter()
        .all(|m| m.get("bound").and_then(JsonValue::as_f64).unwrap() <= setup_bound));

    let layers = entries(&doc, "per_layer");
    assert!(layers.len() <= 128);
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, want) in layers.iter().zip(PER_LAYER) {
        assert_eq!(field(entry, "name"), want.name);
        assert_eq!(field(entry, "unit"), want.unit);
        assert_eq!(field(entry, "better"), want.better);
    }

    let mut names: Vec<&str> = workloads.clone();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for name in &names {
        assert!(valid_name(name), "bad metric or workload name `{name}`");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
}

#[test]
fn every_per_layer_metric_names_what_it_should_move() {
    for m in PER_LAYER {
        assert!(
            END_TO_END.iter().any(|e| e.name == m.moves),
            "{} moves unknown end-to-end metric {}",
            m.name,
            m.moves
        );
        assert!(
            WORKLOADS.contains(&m.on),
            "{} names unknown workload {}",
            m.name,
            m.on
        );
    }
}

/// Runs the benchmark from the repository root; returns the exit status
/// and the parsed last line of standard output.
fn run(workload: &str, seed: u64, trace: bool) -> (bool, JsonValue) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    (out.status.success(), parse(last).unwrap())
}

fn metric(result: &JsonValue, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

fn assert_correct(workload: &str, seed: u64, trace: bool) -> JsonValue {
    let (ok, result) = run(workload, seed, trace);
    assert!(ok, "{workload} seed {seed} exited non-zero");
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(JsonValue::as_f64).unwrap() >= 1.0);
    result
}

#[test]
fn smoke_paper() {
    let result = assert_correct("paper", 1, false);
    for m in END_TO_END {
        assert!(metric(&result, m.name) > 0.0, "{} is not positive", m.name);
    }
}

#[test]
fn smoke_city_on_two_seeds() {
    for seed in [1, 2] {
        assert_correct("city", seed, false);
    }
}

#[test]
fn smoke_serve_on_two_seeds() {
    for seed in [1, 2] {
        assert_correct("serve", seed, false);
    }
}

#[test]
fn traced_run_reports_every_layer_and_counts_repeat_exactly() {
    let first = assert_correct("city", 3, true);
    let second = assert_correct("city", 3, true);
    for m in PER_LAYER {
        let (a, b) = (metric(&first, m.name), metric(&second, m.name));
        if m.unit == "count" || m.unit == "bytes" || m.unit == "ratio" {
            assert_eq!(a, b, "{} differs between identical runs", m.name);
        }
    }
}
