//! `codesign-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the end-to-end co-design search benchmark and
//! prints a provenance header (`# key: value` lines), one line per
//! metric, and, as the last line, the result as one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use ecad_codesign_bench::{run, Workload, WORKLOADS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(&value).ok_or_else(|| {
                    format!(
                        "unknown workload {value:?}; one of {}",
                        WORKLOADS.join(", ")
                    )
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "codesign-bench: {e}\nusage: codesign-bench --workload <{}> --seed <n> \
                 [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args.workload, args.seed, args.seconds, args.traced) {
        Ok(report) => {
            for (key, value) in &report.provenance {
                println!("# {key}: {value}");
            }
            for failure in &report.failures {
                println!("# check failed: {failure}");
            }
            for (name, unit, value) in &report.metrics {
                println!("{name} = {value} {unit}");
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("codesign-bench: {e}");
            ExitCode::FAILURE
        }
    }
}
