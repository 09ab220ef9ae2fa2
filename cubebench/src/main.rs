//! `cubebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints every metric by name,
//! with its unit and sample count, then as the last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. With `--trace 1`
//! the metrics are the per-layer ones, and the run's spans are written to
//! `.bench_out/<workload>-seed<n>.spans.jsonl`.

use cubebench::stats::{fingerprint, result_line};
use cubebench::{run, Config, Scale, WORKLOADS};
use std::process::ExitCode;

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        scale: Scale::full(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => cfg.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got '{}'",
            cfg.workload
        ));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cubebench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for (k, v) in fingerprint() {
        println!("host {k}: {v}");
    }
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cubebench: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &report.metrics {
        println!(
            "metric {:<26} {:>16.6} {:<7} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let o = &report.outcome;
    println!("operations attempted {} failed {}", o.attempted, o.failed);
    for note in &o.notes {
        println!("failure: {note}");
    }
    if let Some(tracer) = &report.tracer {
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("{}-seed{}.spans.jsonl", cfg.workload, cfg.seed));
        match tracer.write(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("cubebench: writing spans: {e}"),
        }
    }
    let correct = o.failed == 0;
    println!(
        "{}",
        result_line(correct, o.attempted, o.failed, &report.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
