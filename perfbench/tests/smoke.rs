//! Runs every workload named in `BENCHMARK.json` at `--smoke` size,
//! untraced and traced, and checks the output contract: the gate passes,
//! each listed metric is printed exactly once with its unit, names are
//! well-formed, and the caps hold.
//!
//! `cargo test --manifest-path perfbench/Cargo.toml`

use std::path::Path;
use std::process::Command;

/// The text of the JSON array stored under `key`.
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let at = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} missing"));
    let open = at + json[at..].find('[').expect("array opens");
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return &json[open..=open + i];
                }
            }
            _ => {}
        }
    }
    panic!("{key} array never closes");
}

/// Every string stored under `field` inside `text`, in order.
fn strings(text: &str, field: &str) -> Vec<String> {
    let needle = format!("\"{field}\"");
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let open = rest.find('"').expect("value opens");
        let close = open + 1 + rest[open + 1..].find('"').expect("value closes");
        out.push(rest[open + 1..close].to_string());
        rest = &rest[close + 1..];
    }
    out
}

fn well_formed(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    let rest_ok = name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
    first_ok && rest_ok && name.len() <= 64
}

/// Runs one workload and checks its printed metrics against `expected`.
fn run_and_check(workload: &str, trace: &str, expected: &[(String, String)]) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .output()
        .expect("the bench binary starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    for key in [
        "\"correct\":true",
        "\"attempted\":",
        "\"failed\":0",
        "\"metrics\":{",
    ] {
        assert!(
            last.contains(key),
            "{workload}: result line lacks {key}: {last}"
        );
    }
    for (name, unit) in expected {
        let printed = stdout
            .lines()
            .filter(|l| {
                l.split(' ').next() == Some(name.as_str()) && l.ends_with(&format!(" {unit}"))
            })
            .count();
        assert_eq!(
            printed, 1,
            "{workload} --trace {trace}: `{name}` ({unit}) printed {printed} times"
        );
        let in_json = last.matches(&format!("\"{name}\":{{\"value\":")).count();
        assert_eq!(
            in_json, 1,
            "{workload} --trace {trace}: `{name}` in the result line {in_json} times"
        );
    }
    let reported = last.matches("\"value\":").count();
    assert_eq!(
        reported,
        expected.len(),
        "{workload} --trace {trace}: exactly the listed metrics"
    );
}

#[test]
fn every_workload_meets_the_output_contract() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repository root");

    let workloads = strings(array(&json, "workloads"), "name");
    let pairs = |key: &str| -> Vec<(String, String)> {
        let text = array(&json, key);
        strings(text, "name")
            .into_iter()
            .zip(strings(text, "unit"))
            .collect()
    };
    let end_to_end = pairs("end_to_end");
    let per_layer = pairs("per_layer");

    assert!((2..=8).contains(&workloads.len()), "2 to 8 workloads");
    assert!(
        (1..=16).contains(&end_to_end.len()),
        "1 to 16 end-to-end metrics"
    );
    assert!(
        (1..=128).contains(&per_layer.len()),
        "1 to 128 per-layer metrics"
    );
    assert!(
        end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"),
        "setup_s in seconds"
    );
    let mut names: Vec<&String> = workloads
        .iter()
        .chain(end_to_end.iter().chain(&per_layer).map(|(n, _)| n))
        .collect();
    assert!(
        names.iter().all(|n| well_formed(n)),
        "names are [A-Za-z0-9][A-Za-z0-9_.-]*"
    );
    names.sort();
    names.dedup();
    assert_eq!(
        names.len(),
        workloads.len() + end_to_end.len() + per_layer.len(),
        "names are unique"
    );

    for workload in &workloads {
        run_and_check(workload, "0", &end_to_end);
        run_and_check(workload, "1", &per_layer);
    }
}
