//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints notes, then one JSON result line; exits 1 when an output check
//! failed and 2 on a usage error.

use perfbench::workload::Workload;
use perfbench::{run, Options};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        return usage(&format!(
            "need all four flags with valid values; workloads: {}",
            names.join(", ")
        ));
    };
    let report = run(Options {
        shape: workload.shape(),
        seed,
        seconds,
        trace,
    });
    for note in &report.notes {
        println!("# {note}");
    }
    for p in &report.problems {
        println!("# CHECK FAILED: {p}");
    }
    println!("{}", report.json());
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
