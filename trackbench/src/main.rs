//! `trackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a report line (machine fingerprint and what actually ran), then,
//! as the last line, the result: `correct`, `attempted`, `failed` and every
//! metric with its unit. Exits 1 when a correctness gate fails and 2 on bad
//! arguments.

use std::process::ExitCode;
use trackbench::{run, Params, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: trackbench --workload <{}> --seed <u64> --seconds <1..=60> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| (1..=60).contains(s)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every flag is required and must be valid");
    };
    // The internet preset loads a CAIDA snapshot from this variable when it
    // is set; the benchmark's inputs come from the seed alone.
    std::env::remove_var("TRACKDOWN_AS_REL");

    match run(&Params::new(workload, seed, seconds, trace)) {
        Ok(outcome) => {
            println!("{}", outcome.report_json());
            println!("{}", outcome.result_json());
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!("correctness gate failed: {}", failure.message);
            println!("{}", failure.result_json());
            ExitCode::from(1)
        }
    }
}
