//! End-to-end benchmark of the scenario pipeline (parse → generate →
//! narrow → compile/open → ingest/publish → query → reduce → report).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <matrix-mem|sample-file|stream-churn|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` times the calls a user
//! waits on and prints the end-to-end metrics; `--trace 1` re-drives
//! each pipeline with spans around its layer calls and prints the
//! per-layer metrics. Human-readable lines come first; the last line of
//! standard output is one JSON object. `BENCHMARK.json` at the
//! repository root documents the workloads and metrics.

mod traced;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use tvg_scenarios::Scenario;
use workload::{check_serve, fnv64, timed_serve, ServeInputs, Workload, DEFAULT_SEED};

/// Set-up passes repeat while they fit this budget (at least one pass).
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Scratch files (the sample-file indexes) live under this directory of
/// the working directory, one subdirectory per benchmark process.
const WORK_ROOT: &str = ".perfbench-work";

fn main() {
    let result = parse_args().and_then(|args| match &args.measure {
        Some(dir) => measure(&args, dir),
        None => {
            let summary = if args.trace {
                traced_run(&args)?
            } else {
                untraced_run(&args)?
            };
            summary.print();
            Ok(())
        }
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in the child process that runs the measured calls.
    measure: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let name = get("--workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace") {
        Ok("1") => true,
        Ok("0") | Err(_) => false,
        Ok(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
        measure: get("--measure").ok().map(PathBuf::from),
    })
}

/// A scratch directory removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<Self, String> {
        let dir = Path::new(WORK_ROOT).join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

fn index_file(dir: &Path, instance: usize) -> PathBuf {
    dir.join(format!("{instance}.tvgi"))
}

fn scenarios(w: Workload, seed: u64) -> Result<Vec<Scenario>, String> {
    (0..w.instances()).map(|i| w.scenario(seed, i)).collect()
}

/// Runs `f`, turning a panic into an error.
fn catch<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".into()))
}

/// Attempted and failed operations.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn record<R>(&mut self, what: &str, r: Result<R, String>) -> Option<R> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            eprintln!("perfbench: {what} failed: {e}");
        })
        .ok()
    }
}

pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The median over passes of each pass's mean over the instances, for
/// `(pass, value)` samples. The mean averages over the instances' inputs;
/// the median over passes discards a pass the machine slowed.
fn pass_median(samples: &[(usize, f64)]) -> f64 {
    let mut passes: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(p, v) in samples {
        passes.entry(p).or_default().push(v);
    }
    let means: Vec<f64> = passes
        .values()
        .map(|v| v.iter().sum::<f64>() / v.len() as f64)
        .collect();
    median(&means)
}

/// Nearest-rank percentile of ascending `sorted`.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `VmHWM` of this process in KiB.
fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The child process: runs the measured calls over every instance in
/// full passes, for about `--seconds`, checks every output, and prints
/// one line per call plus its own peak RSS.
fn measure(args: &Args, dir: &Path) -> Result<(), String> {
    let w = args.workload;
    let scenarios = scenarios(w, args.seed)?;
    let mut ops = Ops::default();
    let mut seen: Vec<Option<u64>> = vec![None; scenarios.len()];
    let started = Instant::now();
    for p in 0.. {
        let pass = Instant::now();
        for (i, s) in scenarios.iter().enumerate() {
            let file = index_file(dir, i);
            let call = catch(|| {
                let (secs, report) = w.measured_call(s, &file)?;
                let digest = fnv64(report.canonical_json().as_bytes());
                println!("call {p} {i} {secs} {digest:016x}");
                Ok((report, digest))
            });
            let report = ops.record(
                &format!("{} instance {i}", w.name()),
                call.and_then(|(report, digest)| {
                    if *seen[i].get_or_insert(digest) != digest {
                        return Err("report bytes differ between calls".into());
                    }
                    if args.seed == DEFAULT_SEED && w.stored_digest(i) != Some(digest) {
                        return Err(format!("digest {digest:016x} differs from the stored one"));
                    }
                    w.self_check(s, &report)?;
                    Ok(report)
                }),
            );
            if w == Workload::ServeMixed {
                let served = catch(|| {
                    let report = report.ok_or("Scenario::run failed")?;
                    let inputs = ServeInputs::new(s, &s.build_graph())?;
                    let requests = inputs.load.len();
                    let (secs, outcome) = timed_serve(inputs)?;
                    let t = &outcome.timing;
                    println!(
                        "serve {p} {secs} {} {} {requests}",
                        t.p50_micros, t.p95_micros
                    );
                    check_serve(s, &report, &outcome)
                });
                ops.record(&format!("serve instance {i}"), served);
            }
        }
        if started.elapsed() + pass.elapsed() > Duration::from_secs(args.seconds) {
            break;
        }
    }
    println!("ops {} {}", ops.attempted, ops.failed);
    println!("rss_kb {}", peak_rss_kb()?);
    Ok(())
}

/// A finished run: operation counts and metrics with their units.
struct Summary {
    title: String,
    ops: Ops,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Summary {
    fn print(&self) {
        println!("{}", self.title);
        for (name, value, unit) in &self.metrics {
            println!("  {name:<24} {value:>16.4} {unit}");
        }
        let ratio = self.ops.failed as f64 / self.ops.attempted.max(1) as f64;
        println!(
            "  {:<24} {ratio:>16.4} ({} of {} operations failed)",
            "fail_ratio", self.ops.failed, self.ops.attempted
        );
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ops.failed == 0 && self.ops.attempted > 0 && finite,
            self.ops.attempted.max(1),
            self.ops.failed,
            metrics.join(", ")
        );
    }
}

fn untraced_run(args: &Args) -> Result<Summary, String> {
    let w = args.workload;
    let dir = WorkDir::create()?;
    let scenarios = scenarios(w, args.seed)?;
    let mut ops = Ops::default();

    // Set-up: every instance once per pass, in this process.
    let mut setup = Vec::new();
    let started = Instant::now();
    for p in 0.. {
        let pass = Instant::now();
        for (i, s) in scenarios.iter().enumerate() {
            let t = Instant::now();
            let done = catch(|| w.setup(s, &index_file(&dir.0, i)));
            if ops
                .record(&format!("set-up of instance {i}"), done)
                .is_some()
            {
                setup.push((p, t.elapsed().as_secs_f64()));
            }
        }
        if started.elapsed() + pass.elapsed() > SETUP_BUDGET {
            break;
        }
    }

    // The measured calls, in a process that did nothing else: its peak
    // RSS is theirs alone (for sample-file, without the compile's).
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--measure")
        .arg(&dir.0)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning the measuring process: {e}"))?;
    let out = child.wait_with_output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("measuring process exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut calls: Vec<(usize, f64)> = Vec::new();
    let mut digests: Vec<Option<String>> = vec![None; scenarios.len()];
    let mut serves: Vec<(usize, [f64; 4])> = Vec::new();
    let mut rss_kb = None;
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |k: usize| -> Result<f64, String> {
            f.get(k)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad line from the measuring process: {line}"))
        };
        match f.first().copied() {
            Some("call") => {
                calls.push((num(1)? as usize, num(3)?));
                let i = num(2)? as usize;
                if let (Some(slot), Some(d)) = (digests.get_mut(i), f.get(4)) {
                    *slot = Some((*d).to_string());
                }
            }
            Some("serve") => {
                let pass = num(1)? as usize;
                serves.push((pass, [num(2)?, num(3)?, num(4)?, num(5)?]));
            }
            Some("ops") => {
                ops.attempted += num(1)? as u64;
                ops.failed += num(2)? as u64;
            }
            Some("rss_kb") => rss_kb = Some(num(1)?),
            _ => return Err(format!("bad line from the measuring process: {line}")),
        }
    }
    let rss_kb = rss_kb.ok_or("the measuring process reported no peak RSS")?;

    // sample-file: the file path must answer exactly as a direct run.
    if w == Workload::SampleFile {
        for (i, s) in scenarios.iter().enumerate() {
            let same = catch(|| {
                let direct = format!("{:016x}", fnv64(s.run().canonical_json().as_bytes()));
                match &digests[i] {
                    Some(d) if *d == direct => Ok(()),
                    _ => Err("run_with_index bytes differ from Scenario::run".into()),
                }
            });
            ops.record(&format!("file-versus-direct check of instance {i}"), same);
        }
    }

    let mut sorted: Vec<f64> = calls.iter().map(|&(_, secs)| secs).collect();
    sorted.sort_by(f64::total_cmp);
    let (requests_per_s, p50_ms, p95_ms) = if w == Workload::ServeMixed {
        let col = |f: fn(&[f64; 4]) -> f64| {
            pass_median(&serves.iter().map(|(p, s)| (*p, f(s))).collect::<Vec<_>>())
        };
        (
            col(|s| s[3] / s[0]),
            col(|s| s[1]) / 1e3,
            col(|s| s[2]) / 1e3,
        )
    } else {
        (
            sorted.len() as f64 / sorted.iter().sum::<f64>(),
            median(&sorted) * 1e3,
            percentile(&sorted, 95.0) * 1e3,
        )
    };
    Ok(Summary {
        title: format!(
            "perfbench {} seed {}: {} instances, {} set-ups, {} measured calls, {} serve calls",
            w.name(),
            args.seed,
            scenarios.len(),
            setup.len(),
            calls.len(),
            serves.len()
        ),
        ops,
        metrics: vec![
            ("setup_s", pass_median(&setup), "s"),
            ("run_s", pass_median(&calls), "s"),
            ("peak_rss_mb", rss_kb / 1024.0, "MiB"),
            ("requests_per_s", requests_per_s, "1/s"),
            ("request_p50_ms", p50_ms, "ms"),
            ("request_p95_ms", p95_ms, "ms"),
        ],
    })
}

fn traced_run(args: &Args) -> Result<Summary, String> {
    let w = args.workload;
    let dir = WorkDir::create()?;
    let scenarios = scenarios(w, args.seed)?;
    let mut ops = Ops::default();
    let mut instances = Vec::new();
    for (i, s) in scenarios.iter().enumerate() {
        // Alternate which side runs first, so neither always runs warm.
        let file = index_file(&dir.0, i);
        let layers = catch(|| traced::traced_instance(w, s, &file, i % 2 == 0));
        if let Some(layers) = ops.record(&format!("traced instance {i}"), layers) {
            instances.push(layers);
        }
        let _ = std::fs::remove_file(&file);
    }
    let metrics = traced::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = instances
                .iter()
                .map(|l| l.get(name).copied().unwrap_or(0.0))
                .collect();
            (name, median(&values), unit)
        })
        .collect();
    Ok(Summary {
        title: format!(
            "perfbench {} seed {} traced: medians over {} instances",
            w.name(),
            args.seed,
            instances.len()
        ),
        ops,
        metrics,
    })
}
