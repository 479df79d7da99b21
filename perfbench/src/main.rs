//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary, then, as the last line of standard
//! output, one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--small` runs every program at `RuntimeScale::small()` (smoke runs).
//!
//! `perfbench --capture-expected` prints the reference results for
//! `expected.txt`, computed with the `ExecMode::Legacy` interpreter.

use std::path::PathBuf;
use std::process::ExitCode;

use nimage_perfbench::check::{legacy_baseline, program_result};
use nimage_perfbench::workload::{seeded_scale, Size, Subject, Workload};
use nimage_perfbench::{rss_probe, run, Args};
use nimage_workloads::RuntimeScale;

fn usage() -> &'static str {
    "usage: perfbench --workload <cold-micronaut|warm-micronaut|warm-awfy-run> --seed <n> \
     --seconds <s> --trace <0|1> [--small]\n       perfbench --capture-expected"
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ColdMicronaut,
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        probe_exe: std::env::current_exe()
            .map_err(|e| format!("cannot locate this executable for the memory probe: {e}"))?,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--small" {
            args.size = Size::Small;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds out of range: {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Runs every program of every workload through the serial pipeline under
/// the legacy interpreter at several scales, and prints one line per
/// program once all its scales agree.
fn capture_expected() -> Result<(), String> {
    let mut subjects: Vec<Subject> = Vec::new();
    for w in Workload::ALL {
        for &s in w.subjects() {
            if !subjects.contains(&s) {
                subjects.push(s);
            }
        }
    }
    println!("# Reference results: <program> <result>. Captured by `perfbench --capture-expected`");
    println!("# with ExecMode::Legacy over seeds 0-2 at the stock scale and seeds 0-1 at");
    println!("# RuntimeScale::small(); every scale gave the same result. Queens is checked");
    println!("# against its closed form instead (Awfy::expected_iteration_result).");
    for s in subjects {
        let scales = [
            (Size::Full, 0),
            (Size::Full, 1),
            (Size::Full, 2),
            (Size::Small, 0),
            (Size::Small, 1),
        ];
        let mut results = Vec::new();
        for (size, seed) in scales {
            let base = match size {
                Size::Full => s.stock_scale(),
                Size::Small => RuntimeScale::small(),
            };
            let program = s.program(&seeded_scale(&base, s.name(), seed));
            results.push(program_result(&legacy_baseline(s, &program)?));
        }
        if results.iter().any(|r| *r != results[0]) {
            return Err(format!(
                "{}: result depends on the scale: {results:?}",
                s.name()
            ));
        }
        println!("{} {}", s.name(), results[0]);
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--capture-expected") {
        return match capture_expected() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.first().map(String::as_str) == Some("--rss-probe") {
        let mut rest: Vec<String> = argv[1..].to_vec();
        let primed = rest
            .iter()
            .position(|a| a == "--primed")
            .filter(|&i| i + 1 < rest.len())
            .map(|i| PathBuf::from(rest.drain(i..i + 2).nth(1).unwrap_or_default()));
        return match parse(&rest).and_then(|a| rss_probe(&a, primed.as_deref())) {
            Ok(mb) => {
                println!("{mb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!(
                "perfbench {} seed={} seconds={} trace={} size={:?}",
                args.workload.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace),
                args.size
            );
            for m in &outcome.metrics {
                println!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!(
                "  {:<30} {:>16.4} ratio ({} of {} cells failed)",
                "cell_fail_frac",
                outcome.cell_fail_frac(),
                outcome.failed,
                outcome.attempted
            );
            for n in &outcome.notes {
                println!("  note: {n}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
