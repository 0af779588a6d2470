//! `perfbench`: the repository's benchmark. One invocation runs one
//! workload on inputs generated from `--seed`, measures for `--seconds`,
//! checks every run's output, and prints a table followed by one JSON line:
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See README.md in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-chains-steal --seed 42 --seconds 50 --trace 0
//! ```

mod bench;
mod catalog;
mod live;
mod os;
mod sim;
mod stats;
mod workload;

use catalog::Metric;
use std::process::ExitCode;
use workload::{Workload, DEFAULT_SEED, HELD_OUT_SEED};

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad(&format!("one of {}", names.join("|"))))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| bad("whole seconds in 1..=600"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A JSON number for `v`: shortest round-trip digits, 0 if not finite.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One CPU for the whole process: the live runtime's 5 threads then
    // time-share it instead of migrating between cores, which is what made
    // unpinned runs spread by 68% min-max. Cross-core hand-off cost is thus
    // not measured; `rt.cpu_ns_per_task` reports CPU cost beside wall time.
    // Pinning and the single malloc arena must both precede the first thread.
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = os::pin_to_one_cpu();
    let one_arena = os::single_malloc_arena();
    let w = args.workload;
    println!(
        "perfbench {} seed {}{} · {} s · trace {} · pinned to cpu {} of {cpus} available · one malloc arena: {one_arena}",
        w.name(),
        args.seed,
        if args.seed == HELD_OUT_SEED { " (held out)" } else { "" },
        args.seconds,
        u8::from(args.trace),
        cpu.map_or("none".to_string(), |c| c.to_string()),
    );

    let report = bench::run(w, args.seed, args.seconds, args.trace);
    let metrics: Vec<Metric> = if args.trace {
        catalog::per_layer()
    } else {
        catalog::end_to_end()
    };
    let (mut json, mut missing) = (Vec::new(), Vec::new());
    for m in &metrics {
        // A metric a failed run could not produce reads 0 and fails the run.
        let v = report.values.get(&m.name).copied().unwrap_or_else(|| {
            missing.push(m.name.as_str());
            0.0
        });
        let n = report
            .samples
            .get(&m.name)
            .map_or(String::new(), |n| format!("(n={n})"));
        println!("{:<40} {:>18.6} {:<6} {n}", m.name, v, m.unit);
        json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(v),
            m.unit
        ));
    }
    for f in &report.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    if !missing.is_empty() {
        eprintln!("perfbench: not measured: {}", missing.join(", "));
    }
    let failed = report.failures.len();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && missing.is_empty(),
        report.attempted,
        failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let a = parse("--workload sim-chains-steal").unwrap();
        assert_eq!(a.workload, Workload::SimChainsSteal);
        assert_eq!((a.seed, a.seconds, a.trace), (DEFAULT_SEED, 10, false));
        let a = parse("--workload sim-service-poisson --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(parse("").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload sim-chains-steal --trace 2").is_err());
        assert!(parse("--workload sim-chains-steal --seconds 0").is_err());
        assert!(parse("--workload sim-chains-steal --seed").is_err());
        assert!(parse("--workload sim-chains-steal --bogus 1").is_err());
    }
}
