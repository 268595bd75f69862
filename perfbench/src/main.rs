//! Benchmark of the PIVOT cascade, offline and served.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline-tiny --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, and the recorded spans are written to
//! `<target dir>/perfbench-trace/<workload>-<seed>.json`. Diagnostics go
//! to standard error. See `perfbench/README.md` for what each metric
//! measures and which workload exercises which layer.

mod host;
mod ladder;
mod layers;
mod offline;
mod reference;
mod report;
mod serve;
mod stats;
mod trace;

use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// The workloads `--workload` accepts.
const WORKLOADS: [&str; 2] = ["offline-tiny", "serve-tiny"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; choose one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(40);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, started: Instant) -> Result<String, String> {
    let serving = args.workload == "serve-tiny";
    if !args.trace {
        let report = if serving {
            serve::measure(args.seed, args.seconds, started)?
        } else {
            offline::measure(args.seed, args.seconds, started)?
        };
        return report.to_json(END_TO_END);
    }
    let mut tracer = Tracer::new();
    let report: Report = if serving {
        serve::trace(args.seed, args.seconds, &mut tracer)?
    } else {
        offline::trace(args.seed, args.seconds, &mut tracer)?
    };
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
    )
    .join("perfbench-trace");
    let path = dir.join(format!("{}-{}.json", args.workload, args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "{}: {} spans written to {}",
        args.workload,
        tracer.spans().len(),
        path.display()
    );
    report.to_json(PER_LAYER)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let result = parse_args().and_then(|args| run(&args, started));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
