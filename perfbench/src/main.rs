//! `perfbench --workload <cpr_cycle|app_run|fleet> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric with its unit and the workload that measured
//! it, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits non-zero without a
//! result if the workload cannot be set up.

use perfbench::{Kind, Report, DEFAULT_SEED};
use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        kind: Kind::CprCycle,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.kind =
                    Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The result line. Values print in Rust's shortest round-trip form,
/// which keeps every digit; a non-finite value prints as 0.
fn json(r: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    perfbench::stats::pin_allocator();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match perfbench::run(args.kind, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    for m in &report.metrics {
        println!(
            "{:<36} {:>14.4} {:<9} ({})",
            m.name,
            m.value,
            m.unit,
            m.source.name()
        );
    }
    println!("{}", json(&report));
    ExitCode::SUCCESS
}
