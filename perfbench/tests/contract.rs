//! The benchmark's own tests: its names against `BENCHMARK.json`, its
//! output checks on short runs, failure accounting, and the seed-1 pins
//! of every workload.

use metrics::json::Json;
use perfbench::names::{self, END_TO_END};
use perfbench::run;
use perfbench::workload::{Bench, PINS};
use perfbench::{measure, Checks, Opts, Report};

/// Whether `s` is a valid metric or workload name: starts with a letter
/// or digit, at most 64 of letters, digits, `_`, `.` and `-`.
fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `s` is a valid unit: 1 to 16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(v)) => v,
        other => panic!("{key}: expected a list, got {other:?}"),
    }
}

fn string<'a>(j: &'a Json, key: &str) -> &'a str {
    match j.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn number(j: &Json, key: &str) -> f64 {
    match j.get(key) {
        Some(Json::F64(x)) => *x,
        Some(Json::U64(x)) => *x as f64,
        other => panic!("{key}: expected a number, got {other:?}"),
    }
}

#[test]
fn names_match_benchmark_json_and_grammar() {
    let b = benchmark_json();
    let workloads: Vec<&str> = list(&b, "workloads")
        .iter()
        .map(|w| string(w, "name"))
        .collect();
    let ours: Vec<&str> = Bench::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    let e2e: Vec<(&str, &str)> = list(&b, "end_to_end")
        .iter()
        .map(|m| (string(m, "name"), string(m, "unit")))
        .collect();
    assert_eq!(e2e, END_TO_END.to_vec());
    for m in list(&b, "end_to_end") {
        let bound = number(m, "bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let setup = list(&b, "end_to_end")
        .iter()
        .find(|m| string(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (string(setup, "unit"), string(setup, "better")),
        ("s", "lower")
    );

    let layer: Vec<(String, String)> = list(&b, "per_layer")
        .iter()
        .map(|m| (string(m, "name").to_string(), string(m, "unit").to_string()))
        .collect();
    let ours: Vec<(String, String)> = names::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(layer, ours);

    let mut all: Vec<String> = workloads.iter().map(|s| s.to_string()).collect();
    all.extend(e2e.iter().map(|(n, _)| n.to_string()));
    all.extend(layer.iter().map(|(n, _)| n.clone()));
    for n in &all {
        assert!(valid_name(n), "bad name {n}");
    }
    let mut sorted = all.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), all.len(), "a name is used twice");
    for (_, u) in e2e
        .iter()
        .map(|(n, u)| (*n, *u))
        .chain(layer.iter().map(|(n, u)| (n.as_str(), u.as_str())))
    {
        assert!(valid_unit(u), "bad unit {u}");
    }
}

fn short(bench: Bench, traced: bool) -> Opts {
    Opts {
        bench,
        seed: 3,
        seconds: 0.1,
        traced,
        short: true,
    }
}

fn assert_clean(report: &Report) {
    assert_eq!(report.checks.failed, 0, "{:?}", report.checks.failures);
    assert!(report.checks.attempted >= 2);
    for (name, value, _) in &report.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn short_plain_runs_pass_their_checks() {
    for bench in Bench::ALL {
        let report = measure(short(bench, false));
        assert_clean(&report);
        let got: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(got, want);
        for (name, value, _) in &report.metrics {
            assert!(*value > 0.0, "{} {name} = {value}", bench.name());
        }
    }
}

#[test]
fn short_traced_runs_pass_their_checks_and_report_every_layer() {
    for bench in Bench::ALL {
        let report = measure(short(bench, true));
        assert_clean(&report);
        let got: Vec<String> = report.metrics.iter().map(|(n, _, _)| n.clone()).collect();
        let want: Vec<String> = names::per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(got, want);
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let report = Report {
        checks: Checks::default(),
        metrics: vec![("wall_s".to_string(), 1.25, "s")],
    };
    let j = Json::parse(&report.to_json().render()).expect("the result line parses");
    let Json::Obj(fields) = &j else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
    let wall = j
        .get("metrics")
        .and_then(|m| m.get("wall_s"))
        .expect("wall_s");
    assert_eq!(wall.get("unit"), Some(&Json::Str("s".into())));
}

#[test]
fn flipped_fingerprint_or_failing_audit_counts_as_failed() {
    let setup = Bench::Cluster4Keepalive.setup(5, true);
    let reference = run::plain(&setup).outcome();
    let mut checks = Checks::default();
    assert!(checks.record(
        "clean repeat",
        run::check(&reference, &run::plain(&setup).outcome())
    ));

    let mut flipped = reference.clone();
    flipped.fingerprint ^= 1;
    assert!(!checks.record("flipped", run::check(&reference, &flipped)));
    let mut audited = reference.clone();
    audited
        .violations
        .push("client: started != completed + timed out + live".into());
    assert!(!checks.record("audit", run::check(&reference, &audited)));

    assert_eq!((checks.attempted, checks.failed), (3, 2));
    let report = Report {
        checks,
        metrics: Vec::new(),
    };
    let line = report.to_json();
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(line.get("failed"), Some(&Json::U64(2)));
}

#[test]
fn seed_one_outputs_are_pinned() {
    for (bench, fingerprint, events, served) in PINS {
        let out = run::plain(&bench.setup(1, false)).outcome();
        assert!(
            out.violations.is_empty(),
            "{}: {:?}",
            bench.name(),
            out.violations
        );
        assert_eq!(
            (out.fingerprint, out.events, out.served),
            (fingerprint, events, served),
            "{}: the workload's seed-1 output moved",
            bench.name()
        );
    }
}
