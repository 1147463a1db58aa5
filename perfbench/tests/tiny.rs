//! The benchmark's own checks, on tiny inputs (`--tiny`): every metric that
//! `BENCHMARK.json` names is printed with its unit, the traced replay is
//! identical to the untraced run, and — as a negative control — a wrong
//! pinned digest is reported as a failed operation.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["learn_table3", "atpg_table5", "serve_mixed", "ingest_scale"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} missing"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("quoted value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

struct Outcome {
    result: String,
    failed: u64,
}

fn run(test: &str, workload: &str, trace: bool, extra: &[&str]) -> Outcome {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{test}-{workload}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "0",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(&work)
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let result = stdout.lines().last().expect("a result line").to_string();
    let failed = result
        .split("\"failed\": ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .expect("failed count");
    Outcome { result, failed }
}

fn assert_metrics(workload: &str, outcome: &Outcome, section: &str) {
    for (name, unit) in declared(section) {
        let prefix = format!("\"{name}\": {{\"value\": ");
        let at = outcome
            .result
            .find(&prefix)
            .unwrap_or_else(|| panic!("{workload}: metric {name} missing: {}", outcome.result));
        let rest = &outcome.result[at + prefix.len()..];
        let (value, tail) = rest.split_once(',').expect("value then unit");
        assert!(value.parse::<f64>().is_ok(), "{workload}: {name} = {value}");
        assert!(
            tail.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
            "{workload}: {name} has the wrong unit: {tail}"
        );
    }
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    for workload in WORKLOADS {
        let outcome = run("e2e", workload, false, &[]);
        assert_eq!(outcome.failed, 0, "{workload}: {}", outcome.result);
        assert_metrics(workload, &outcome, "end_to_end");
    }
}

#[test]
fn traced_replay_is_identical_and_prints_every_layer_metric() {
    // Any replayed output that differs from the untraced run is a failed
    // operation, so a clean traced run proves the replay bit-identical.
    for workload in WORKLOADS {
        let outcome = run("layer", workload, true, &[]);
        assert_eq!(outcome.failed, 0, "{workload}: {}", outcome.result);
        assert!(outcome.result.contains("\"correct\": true"));
        assert_metrics(workload, &outcome, "per_layer");
    }
}

#[test]
fn wrong_digest_raises_the_failure_rate() {
    let outcome = run("digest", "atpg_table5", true, &["--expect-digest", "0"]);
    assert!(outcome.failed >= 1, "{}", outcome.result);
    assert!(outcome.result.contains("\"correct\": false"));
    let rate = outcome
        .result
        .split("\"failure_rate\": {\"value\": ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("failure_rate printed");
    assert!(rate > 0.0, "failure_rate {rate}");
}
