//! `arboretum-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's configuration and details, then, as its last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits 1 if any query was refused, failed, or released an output the
//! reference gate rejects, and 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use arboretum_perfbench::workload::{Kind, Size};

const USAGE: &str = "usage: arboretum-perfbench --workload <top1-wide|cms-stream|median-tenants> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut traced) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} has no value", pair[0]));
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// Where an untraced run leaves its `query_p50_ms` for the traced run
/// of the same workload to report the tracing overhead against: beside
/// the benchmark's own executable, inside the build directory.
fn untraced_p50_file(kind: Kind) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(
        exe.parent()?
            .join(format!("untraced-p50-{}.txt", kind.name())),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result =
        arboretum_perfbench::run(args.kind, args.seed, args.seconds, args.traced, Size::Full);
    for line in &result.lines {
        println!("{line}");
    }
    let overhead_file = untraced_p50_file(args.kind);
    if let Some(path) = &overhead_file {
        if !args.traced {
            if let Some(p50) = result.metrics.get("query_p50_ms") {
                // Best effort: the overhead line is a report, not a result.
                let _ = std::fs::write(path, format!("{p50} {}", args.seed));
            }
        } else if let (Ok(saved), Some(traced)) = (
            std::fs::read_to_string(path),
            result.metrics.get("trace.query_p50_ms"),
        ) {
            if let Some((untraced, seed)) = saved.split_once(' ') {
                if let Ok(untraced) = untraced.parse::<f64>() {
                    println!(
                        "tracing overhead: traced query_p50_ms {traced} - untraced {untraced} \
                         (seed {seed}) = {} ms",
                        traced - untraced
                    );
                }
            }
        }
    }
    let correct = result.failed == 0;
    println!(
        "{}",
        result
            .metrics
            .result_line(correct, result.attempted, result.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
