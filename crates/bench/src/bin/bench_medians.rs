//! The bench-regression gate over every experiment in
//! `tvg_bench::registry`.
//!
//! Usage:
//! * `bench_medians emit [dir]` — measure every experiment, write its
//!   medians to `dir/BENCH_<id>.json` (default `.`), and print them.
//! * `bench_medians check <baseline-dir> [--tolerance X]` — re-measure
//!   and fail (exit 1) if any metric breaks the rules of
//!   `tvg_bench::gate` against `<baseline-dir>` (default tolerance 3×;
//!   CI passes `--tolerance 10.0` because its runners are a different
//!   machine class than the one that emitted the baselines).

use std::path::Path;
use std::process::ExitCode;
use tvg_bench::gate::{compare, read_metrics, stale_baselines, to_json};
use tvg_bench::registry::REGISTRY;

fn emit(dir: &Path) -> ExitCode {
    for experiment in REGISTRY {
        let file = experiment.file();
        let text = to_json(&(experiment.measure)());
        let path = dir.join(&file);
        if let Err(e) = std::fs::write(&path, &text) {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        print!("{file}: {text}");
    }
    ExitCode::SUCCESS
}

fn check(dir: &Path, tolerance: f64) -> ExitCode {
    let present: Vec<String> = match std::fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect(),
        Err(e) => {
            eprintln!("error: {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let produced: Vec<String> = REGISTRY.iter().map(|e| e.file()).collect();
    let mut failed = false;
    for file in stale_baselines(&produced, &present) {
        println!("FAIL {file}: no experiment produces this baseline (delete it or restore it)");
        failed = true;
    }
    for experiment in REGISTRY {
        let file = experiment.file();
        let baseline = match read_metrics(&dir.join(&file)) {
            Ok(baseline) => baseline,
            Err(e) => {
                println!("FAIL {e}");
                failed = true;
                continue;
            }
        };
        for verdict in compare(&file, &baseline, &(experiment.measure)(), tolerance) {
            println!("{}", verdict.line);
            failed |= !verdict.ok;
        }
    }
    if failed {
        eprintln!(
            "bench-regression gate FAILED (order-of-magnitude rot; re-baseline only if intended)"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["emit"] => emit(Path::new(".")),
        ["emit", dir] => emit(Path::new(dir)),
        ["check", dir] => check(Path::new(dir), 3.0),
        ["check", dir, "--tolerance", t] => match t.parse::<f64>() {
            Ok(t) if t >= 1.0 => check(Path::new(dir), t),
            _ => {
                eprintln!("error: --tolerance needs a number >= 1.0");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("usage: bench_medians <emit [dir] | check <baseline-dir> [--tolerance X]>");
            ExitCode::FAILURE
        }
    }
}
