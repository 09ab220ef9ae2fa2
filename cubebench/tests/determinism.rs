//! The benchmark's own checks: inputs are a pure function of the seed,
//! exact counts repeat across same-seed runs, and every workload's output
//! checks pass (at small sizes).

use cubebench::data;
use cubebench::{run, Config, Report, Scale};
use std::collections::BTreeMap;

fn run_small(workload: &str, seed: u64, trace: bool, seconds: f64) -> Report {
    let cfg = Config {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
        scale: Scale::small(),
    };
    let report = run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert_eq!(
        report.outcome.failed, 0,
        "{workload} seed {seed}: {:?}",
        report.outcome.notes
    );
    report
}

/// The metrics named `names` of a traced run.
fn exact(workload: &str, seed: u64, names: &[&str]) -> BTreeMap<String, f64> {
    let report = run_small(workload, seed, true, 1.0);
    report
        .metrics
        .iter()
        .filter(|m| names.contains(&m.name))
        .map(|m| (m.name.to_string(), m.value))
        .collect()
}

const CORE: [&str; 4] = [
    "core.rows_scanned",
    "core.iter_calls",
    "core.merge_calls",
    "core.final_calls",
];

#[test]
fn statement_streams_are_a_function_of_the_seed() {
    let d = data::retail(2_000, 3);
    let sql = |seed| {
        data::adhoc_stream(&d, seed, 64)
            .into_iter()
            .map(|s| s.sql)
            .collect::<Vec<_>>()
    };
    assert_eq!(sql(11), sql(11));
    assert_ne!(sql(11), sql(12));
    let distinct: std::collections::BTreeSet<_> = sql(11).into_iter().collect();
    assert_eq!(distinct.len(), 64, "analyst statements are distinct");
    assert!(sql(11).iter().all(|s| s.contains(" WHERE ")));
    let panel = |seed| {
        data::panel("sales", "date", seed)
            .into_iter()
            .map(|s| s.sql)
            .collect::<Vec<_>>()
    };
    assert_eq!(panel(5), panel(5));
}

#[test]
fn adhoc_exact_counts_repeat_across_same_seed_runs() {
    let mut names = CORE.to_vec();
    names.extend(["cache.hits", "cache.misses"]);
    let a = exact("adhoc_slice", 7, &names);
    let b = exact("adhoc_slice", 7, &names);
    assert_eq!(a.len(), names.len());
    assert_eq!(a, b);
    assert!(a["core.rows_scanned"] > 0.0 && a["core.iter_calls"] > 0.0);
}

#[test]
fn ingest_exact_counts_repeat_across_same_seed_runs() {
    let a = exact("ingest_window", 7, &CORE);
    let b = exact("ingest_window", 7, &CORE);
    assert_eq!(a, b);
    assert!(a["core.rows_scanned"] > 0.0);
}

#[test]
fn every_workload_passes_its_output_checks() {
    for w in cubebench::WORKLOADS {
        let report = run_small(w, 3, false, 0.5);
        assert!(
            report.metrics.iter().all(|m| m.value > 0.0),
            "{w}: a zero metric"
        );
    }
}

#[test]
fn traced_runs_report_non_negative_self_times() {
    for w in cubebench::WORKLOADS {
        let report = run_small(w, 5, true, 1.0);
        for name in ["engine.self_ms", "wire.transport_ms"] {
            let m = report.metrics.iter().find(|m| m.name == name).unwrap();
            assert!(m.value >= 0.0, "{w}: {name} = {}", m.value);
        }
        assert!(report.tracer.is_some_and(|t| !t.spans.is_empty()));
    }
}
