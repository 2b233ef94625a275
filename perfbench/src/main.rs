//! `ca-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints its checks and metrics by name with unit
//! and sample count, and ends with one JSON line: `correct`,
//! `attempted`, `failed` and the metrics (end-to-end untraced,
//! per-layer traced). Exits 1 when a correctness check failed and 2 on
//! bad arguments. `--size tiny` runs the same code on a handful of
//! cells.

use ca_perfbench::{run, thread_budget, Config, Size, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ca-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut size) =
        (None, 1u64, 10.0f64, false, Size::Full);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage("--seed takes an unsigned integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => seconds = v,
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--size" => match value.as_str() {
                "full" => size = Size::Full,
                "tiny" => size = Size::Tiny,
                _ => return usage("--size takes full or tiny"),
            },
            other => return usage(&format!("unknown flag {other}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    let threads = thread_budget();
    // Executors the program builds for itself (forest fits) read this,
    // so they stay within the benchmark's thread budget too.
    std::env::set_var("CA_THREADS", threads.to_string());
    let work_dir =
        PathBuf::from(".bench_out").join(format!("{workload}-{seed}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("error: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let config = Config {
        seed,
        seconds,
        trace,
        size,
        threads,
        work_dir: work_dir.clone(),
    };
    let report = run(&workload, &config).expect("workload name checked above");
    // Keep the span dump, drop journals and sockets.
    for sub in ["campaign", "serve"] {
        let _ = std::fs::remove_dir_all(work_dir.join(sub));
    }
    print!("{}", report.render());
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
