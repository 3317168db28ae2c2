//! The TriniT benchmark: one harness, four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke]
//! ```
//!
//! Generates its inputs from `--seed`, gates on answer correctness,
//! measures a closed loop of one client for `--seconds` of operation
//! time, prints every metric by name and unit, and ends with one JSON
//! line `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! separate traced pass and reports the per-layer ledger. See
//! `perfbench/README.md`.

mod alloc;
mod batch_sharded;
mod common;
mod explore_cold;
mod explore_session;
mod inputs;
mod live_ingest;
mod metrics;
mod stats;
mod trace;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes (scale 0.05, a few dozen operations) for the smoke
    /// test; debug-build friendly.
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("--trace")? == "1",
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !metrics::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}",
            metrics::WORKLOADS
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "explore_cold" => explore_cold::run(&args),
        "explore_session" => explore_session::run(&args),
        "batch_sharded" => batch_sharded::run(&args),
        _ => live_ingest::run(&args),
    };

    let table = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} cores {cores}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("samples {}", report.samples);
    let mut json = String::new();
    for (name, unit) in table {
        // A metric the workload does not exercise reads 0.
        let value = report
            .ledger
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        println!("{name} {value} {unit}");
        if !json.is_empty() {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    let correct = report.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        report.attempted, report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}
