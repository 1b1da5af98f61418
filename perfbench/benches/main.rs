//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload from the checkout root and prints, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The line before it records the
//! run's inputs: seed, input digests, host CPUs and thread counts.

use flextract_perfbench::{run, Options, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag {flag} {value}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work_dir = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(format!(".perfbench-work-{}", std::process::id()));
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scales: (Scale::Full, Scale::Companion),
        setup_reps: 3,
        work_dir,
        inject_fault: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    match outcome {
        Ok(outcome) => {
            let inputs: Vec<String> = outcome
                .inputs
                .iter()
                .map(|(part, digest)| format!("\"{part}\": \"{digest:016x}\""))
                .collect();
            let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
            let samples: Vec<String> = outcome
                .samples
                .iter()
                .map(|(name, n)| format!("\"{name}\": {n}"))
                .collect();
            println!(
                "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host_cpus\": {cpus}, \
                 \"threads\": 1, \"consumer_threads\": 1, \"inputs\": {{{}}}, \"samples\": {{{}}}}}}}",
                opts.workload.name(),
                opts.seed,
                opts.trace,
                inputs.join(", "),
                samples.join(", ")
            );
            println!("{}", outcome.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
