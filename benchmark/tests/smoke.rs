//! Runs the real binary at 1-second windows and checks the part of the
//! contract a reader of `BENCHMARK.json` relies on: the workloads and metrics
//! it lists are exactly the ones the benchmark prints, under legal names and
//! the listed units.

use ensembler_tensor::JsonValue;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ensembler-benchmark");
const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn text(value: &JsonValue) -> &str {
    match value {
        JsonValue::String(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

/// `(name, unit)` of every entry of `spec[section]`.
fn listed(spec: &JsonValue, section: &str) -> BTreeSet<(String, String)> {
    spec.require(section)
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|m| {
            (
                text(m.require("name").unwrap()).to_string(),
                text(m.require("unit").unwrap()).to_string(),
            )
        })
        .collect()
}

fn legal_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn smoke_run_prints_exactly_the_workloads_and_metrics_of_benchmark_json() {
    let spec = JsonValue::parse(&std::fs::read_to_string(SPEC).unwrap()).unwrap();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let run = Command::new(BIN)
        .args(["run", "--smoke", "--seed", "3", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(
        run.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    // One result line per (workload, trace mode), in workload order,
    // untraced first.
    let results: Vec<JsonValue> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| JsonValue::parse(l).unwrap())
        .collect();
    let workloads: Vec<&str> = spec
        .require("workloads")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|w| text(w.require("name").unwrap()))
        .collect();
    assert_eq!(results.len(), 2 * workloads.len());

    let result_file =
        JsonValue::parse(&std::fs::read_to_string(out.join("result.json")).unwrap()).unwrap();
    let JsonValue::Object(ran) = result_file.require("workloads").unwrap() else {
        panic!("result.json workloads is not an object");
    };
    assert_eq!(
        ran.iter()
            .map(|(name, _)| name.as_str())
            .collect::<Vec<_>>(),
        workloads
    );

    for (i, workload) in workloads.iter().enumerate() {
        assert!(legal_name(workload), "illegal workload name {workload:?}");
        assert!(out.join(format!("trace-{workload}.json")).exists());
        for (result, section) in [
            (&results[2 * i], "end_to_end"),
            (&results[2 * i + 1], "per_layer"),
        ] {
            let JsonValue::Object(fields) = result else {
                panic!("result line is not an object");
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.require("correct").unwrap(), &JsonValue::Bool(true));
            assert!(result.require("attempted").unwrap().as_usize().unwrap() >= 1);
            assert_eq!(result.require("failed").unwrap().as_usize().unwrap(), 0);
            let JsonValue::Object(metrics) = result.require("metrics").unwrap() else {
                panic!("metrics is not an object");
            };
            let printed: BTreeSet<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(legal_name(name), "illegal metric name {name:?}");
                    assert!(m.require("value").unwrap().as_f64().unwrap().is_finite());
                    assert!(
                        stdout.contains(&format!("{workload:<20} {name:<40}")),
                        "{workload} did not print {name} by name"
                    );
                    (name.clone(), text(m.require("unit").unwrap()).to_string())
                })
                .collect();
            assert_eq!(printed.len(), metrics.len(), "a metric name is used twice");
            assert_eq!(printed, listed(&spec, section), "{workload} {section}");
        }
    }

    // `compare` of a run against itself: every row resolves to `same` or, at
    // these tiny windows, `unresolved` — never `worse`.
    let result_path = out.join("result.json");
    let compare = Command::new(BIN)
        .arg("compare")
        .args([&result_path, &result_path])
        .args(["--spec", SPEC])
        .output()
        .unwrap();
    let table = String::from_utf8(compare.stdout).unwrap();
    assert!(compare.status.success(), "{table}");
    // One row per end-to-end metric plus the `failed_share` row.
    let rows = workloads.len() * (listed(&spec, "end_to_end").len() + 1);
    assert_eq!(table.lines().count(), rows + 1);
    assert!(!table.contains("worse") && !table.contains("better"));
}

/// `moves.json` — which end-to-end metric each per-layer metric should move,
/// on which workloads — names exactly the per-layer metrics of
/// `BENCHMARK.json` and only end-to-end metrics and workloads listed there.
#[test]
fn every_per_layer_metric_names_what_it_should_move() {
    let spec = JsonValue::parse(&std::fs::read_to_string(SPEC).unwrap()).unwrap();
    let moves_path = concat!(env!("CARGO_MANIFEST_DIR"), "/moves.json");
    let file = JsonValue::parse(&std::fs::read_to_string(moves_path).unwrap()).unwrap();
    let names = |section: &str| -> BTreeSet<String> {
        let entries = spec.require(section).unwrap().as_array().unwrap();
        entries
            .iter()
            .map(|e| text(e.require("name").unwrap()).to_string())
            .collect()
    };
    let (workloads, end_to_end) = (names("workloads"), names("end_to_end"));
    assert!(workloads.contains(text(file.require("probe_baseline_workload").unwrap())));
    let JsonValue::Object(moves) = file.require("moves").unwrap() else {
        panic!("moves is not an object");
    };
    let mapped: BTreeSet<String> = moves.iter().map(|(name, _)| name.clone()).collect();
    assert_eq!(mapped.len(), moves.len(), "a metric is mapped twice");
    assert_eq!(mapped, names("per_layer"));
    for (name, entry) in moves {
        for (key, known) in [("metrics", &end_to_end), ("workloads", &workloads)] {
            for listed in entry.require(key).unwrap().as_array().unwrap() {
                assert!(
                    known.contains(text(listed)),
                    "{name}: unknown {key} entry {listed:?}"
                );
            }
        }
    }
}

#[test]
fn bad_invocations_exit_nonzero_without_a_result_line() {
    for args in [
        &["run", "--workload", "no_such_workload"][..],
        &["run", "--trace", "2"],
        &["compare", "only-one.json"],
        &[],
    ] {
        let run = Command::new(BIN).args(args).output().unwrap();
        assert!(!run.status.success(), "{args:?} should fail");
        assert!(!String::from_utf8_lossy(&run.stdout).contains("\"correct\""));
    }
}
