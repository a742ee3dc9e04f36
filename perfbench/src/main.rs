//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-suite [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Detail goes to stdout first, including the run's computed fingerprint
//! beside the recorded one; the last stdout line is the JSON result.
//! A traced run also writes its spans to `.bench_out/`. Exit codes: 0 when
//! every operation passed, 1 when any failed, 2 on a usage error.

use std::process::ExitCode;

use perfbench::{provenance, recorded_fingerprint, run, span, Params, Size, Workload};

const USAGE: &str = "usage: perfbench --workload paper-suite|scale-1e5|observed-suite \
[--seed N] [--seconds S] [--trace 0|1]";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Params, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, 10.0, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Params {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        traced,
        size: Size::Full,
    })
}

fn main() -> ExitCode {
    let params = match parse(std::env::args().skip(1)) {
        Ok(params) => params,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("provenance: {}", provenance(&params));
    let report = run(&params);
    for line in &report.lines {
        println!("{line}");
    }
    // In the format of `fingerprints.txt`, so that a new line can be copied.
    println!(
        "fingerprint: {} {} {} (recorded: {})",
        params.workload.name(),
        params.seed,
        report.check.first_fingerprint().unwrap_or("none"),
        recorded_fingerprint(params.workload, params.seed).unwrap_or("none")
    );
    for problem in &report.check.problems {
        println!("FAILED: {problem}");
    }
    if !report.spans.is_empty() {
        let path = format!(
            ".bench_out/spans-{}-{}.jsonl",
            params.workload.name(),
            params.seed
        );
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, span::to_jsonl(&report.spans)));
        match written {
            Ok(()) => println!("spans: {} written to {path}", report.spans.len()),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
