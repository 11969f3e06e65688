//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `README.md` beside this package) from a seed,
//! checks every output, and prints one JSON object as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of the traced run with `--trace 1`. Exits 1 if any output check
//! failed (after printing the result), 2 on a usage error.

mod bench;
mod gen;
mod kernels;
mod layers;
mod served;
mod stats;
mod trace;

use std::process::ExitCode;

use gen::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, not {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                seconds = Some(s).filter(|s| s.is_finite() && *s >= 0.0);
                seconds.ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        layers::traced(args.workload, args.seed)
    } else {
        bench::end_to_end(args.workload, args.seed, args.seconds, false)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", args.workload.name(), args.seed);
            return ExitCode::FAILURE;
        }
    };
    for f in &report.failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failures.len(),
        metrics.join(", ")
    );
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A finite number in JSON syntax, with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let a = args("--workload served-mix --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::ServedMix, 7, 3.0, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload bare-kernels --seed x").is_err());
        assert!(args("--workload bare-kernels --seed 1 --trace 2").is_err());
        assert!(args("--workload bare-kernels --seed 1 --seconds -1").is_err());
        assert!(args("--seed 1").is_err());
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(3.0), "3.0");
    }
}
