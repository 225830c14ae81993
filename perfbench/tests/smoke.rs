//! Smoke-scale self-test of every workload.
//!
//! Each workload runs on tiny inputs, untraced and traced. Every metric
//! `BENCHMARK.json` declares must be emitted with its unit and a finite
//! value, and a deliberately corrupted expected answer must be counted as
//! a failure, which shows that the answer oracle can fail.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["explore", "serve", "join-append"];

/// The benchmark's last output line, read just far enough for the test.
struct Result {
    stdout: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in printed order.
    metrics: Vec<(String, f64, String)>,
}

fn field<'a>(json: &'a str, key: &str) -> &'a str {
    let at = json
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    let rest = &json[at + key.len() + 4..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim()
}

fn parse(stdout: String) -> Result {
    let json = stdout.lines().last().expect("some output").to_owned();
    let mut metrics = Vec::new();
    let body = &json[json.find("\"metrics\": {").expect("metrics object") + 12..];
    for entry in body.split("}, ").map(|e| e.trim_end_matches('}')) {
        let name = entry.split('"').nth(1).expect("metric name").to_owned();
        let value: f64 = field(entry, "value").parse().expect("numeric value");
        let unit = field(entry, "unit").trim_matches('"').to_owned();
        metrics.push((name, value, unit));
    }
    Result {
        correct: field(&json, "correct") == "true",
        attempted: field(&json, "attempted").parse().expect("attempted"),
        failed: field(&json, "failed").parse().expect("failed"),
        metrics,
        stdout,
    }
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Result {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    std::fs::create_dir_all(&dir).expect("test directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "smoke"])
        .args(extra)
        .current_dir(&dir)
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    parse(String::from_utf8(out.stdout).expect("utf-8 output"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let name = field(entry, "name").trim_matches('"').to_owned();
            let unit = field(entry, "unit").trim_matches('"').to_owned();
            (name, unit)
        })
        .collect()
}

fn check_workload(workload: &str) {
    let plain = run(workload, false, &[]);
    assert!(plain.correct, "{workload}: {}", plain.stdout);
    assert_eq!(plain.failed, 0, "{workload}: {}", plain.stdout);
    assert!(plain.attempted >= 1);
    let emitted: Vec<(String, String)> = plain
        .metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.clone()))
        .collect();
    assert_eq!(emitted, declared("end_to_end"), "{workload}");
    for (name, value, _) in &plain.metrics {
        assert!(
            value.is_finite() && *value > 0.0,
            "{workload}: {name} = {value}"
        );
    }

    let traced = run(workload, true, &[]);
    assert!(traced.correct, "{workload}: {}", traced.stdout);
    let emitted: Vec<(String, String)> = traced
        .metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.clone()))
        .collect();
    assert_eq!(emitted, declared("per_layer"), "{workload}");
    for (name, value, _) in &traced.metrics {
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
    for line in traced.stdout.lines() {
        if line.trim_start().starts_with("server.") && workload != "serve" {
            assert!(line.contains("not exercised"), "{workload}: {line}");
        }
    }
    assert!(
        traced.stdout.contains("trace.overhead_frac"),
        "{workload}: no tracing overhead"
    );

    let spoiled = run(workload, false, &["--corrupt-oracle"]);
    assert!(
        !spoiled.correct,
        "{workload}: corrupted answer went unnoticed"
    );
    assert!(spoiled.failed >= 1, "{workload}: {}", spoiled.stdout);
}

#[test]
fn benchmark_declares_the_three_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    for w in WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
    }
}

#[test]
fn explore_smoke() {
    check_workload("explore");
}

#[test]
fn serve_smoke() {
    check_workload("serve");
}

#[test]
fn join_append_smoke() {
    check_workload("join-append");
}
