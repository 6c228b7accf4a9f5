//! `whisper-livebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report and, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 on a wrong answer, 2 on bad arguments or a run that
//! could not complete.

use std::process::ExitCode;
use std::time::Duration;

use whisper_livebench::{no_wrap, run_end_to_end, run_traced, Plan, Workload};

fn usage(why: &str) -> ExitCode {
    eprintln!("whisper-livebench: {why}");
    eprintln!(
        "usage: whisper-livebench --workload <steady|saturate|orders|failover> --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("missing or invalid arguments");
    };
    let plan = Plan {
        workload,
        seed,
        window: Duration::from_secs_f64(seconds),
        wrap: no_wrap,
    };
    let report = if trace {
        run_traced(&plan)
    } else {
        run_end_to_end(&plan)
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("whisper-livebench: run failed: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("whisper-livebench: wrong answers — see the report above");
        ExitCode::from(1)
    }
}
