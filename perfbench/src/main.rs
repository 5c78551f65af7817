//! Command line of the repository benchmark.
//!
//! ```text
//! nm-perfbench --workload <chaos_bytes|collectives_32n>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric with its unit and sample count, the run's
//! deterministic fingerprint, and as the last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A traced run also writes its spans as TSV under `perfbench/out/`.

use nm_perfbench::measure::Options;
use nm_perfbench::{run, Scale, WORKLOADS};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: nm-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut opts = Options { seed: 1, seconds: 10.0, trace: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { return usage(&format!("{flag} needs a value")) };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            // Positive and at most a day: `Duration` rejects non-finite values.
            "--seconds" => {
                value.parse().map(|v: f64| opts.seconds = v).is_ok()
                    && opts.seconds > 0.0
                    && opts.seconds <= 86_400.0
            }
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(name) = workload else { return usage("--workload is required") };
    let Some(mut out) = run(&name, Scale::Full, &opts) else {
        return usage(&format!("unknown workload {name:?}"));
    };

    let (untraced, traced, setups) = out.passes;
    println!(
        "# {name} seed={} trace={} setups={setups} passes: untraced={untraced} traced={traced}",
        opts.seed, opts.trace as u8
    );
    println!("# fingerprint: {}", out.fingerprint);
    for p in &out.checks.problems {
        println!("# FAILED CHECK: {p}");
    }
    println!("{:<30} {:>16} {:<7} {:>8}", "metric", "value", "unit", "samples");
    for m in &mut out.metrics {
        println!("{:<30} {:>16.6} {:<7} {:>8}", m.name, m.value, m.unit, m.samples);
        if !m.value.is_finite() {
            out.checks.problem(format!("{} is not a finite number", m.name));
            m.value = 0.0;
        }
    }
    if opts.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        match nm_perfbench::measure::write_spans(&dir, &name, opts.seed, &out.spans) {
            Ok(path) => println!("# {} spans written to {}", out.spans.len(), path.display()),
            Err(e) => eprintln!("could not write spans: {e}"),
        }
    }

    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.ok(),
        out.checks.attempted.max(1),
        out.checks.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
