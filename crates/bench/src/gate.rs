//! The bench-regression gate: fresh medians against checked-in
//! baselines.
//!
//! Every metric is a whole number of microseconds, except the ones
//! named `*_per_sec`, which are throughput rates. The gate is
//! one-sided and generous, so only order-of-magnitude rot trips it:
//!
//! * a time fails when it exceeds `tolerance ×` its baseline, where
//!   baselines below [`NOISE_FLOOR_US`] are floored first;
//! * a rate fails when it falls below `1 / tolerance` of its baseline
//!   (the ratio is inverted, since higher is better);
//! * a metric with no baseline, a baseline the bench no longer
//!   produces, and a baseline file no experiment produces all fail,
//!   so the baselines and the registry cannot drift apart silently.
//!
//! Speedups never fail. [`compare`] and [`stale_baselines`] are pure,
//! so the rules above are unit-tested without timing anything.

use std::collections::BTreeMap;
use std::path::Path;
use tvg_dynnet::json::{parse, Json};

/// One experiment's named medians (µs, or a rate for `*_per_sec`).
pub type Metrics = BTreeMap<String, u64>;

/// Time baselines are compared as at least this many microseconds:
/// sub-millisecond medians are dominated by scheduler and machine
/// variance on shared CI runners, and must not flake the gate red
/// without a genuine order-of-magnitude regression.
pub const NOISE_FLOOR_US: u64 = 200;

/// The verdict on one metric: whether it passes, and the line that
/// says why.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// `false` fails the gate.
    pub ok: bool,
    /// Human-readable reason, prefixed `ok` or `FAIL`.
    pub line: String,
}

impl Verdict {
    fn new(ok: bool, line: String) -> Self {
        let tag = if ok { "ok" } else { "FAIL" };
        Verdict {
            ok,
            line: format!("{tag} {line}"),
        }
    }
}

/// Compares one experiment's `current` medians with its `baseline`
/// (both read from or written to `file`) under the rules of the
/// module doc. One verdict per metric in either map.
#[must_use]
pub fn compare(file: &str, baseline: &Metrics, current: &Metrics, tolerance: f64) -> Vec<Verdict> {
    let unbaselined = current
        .keys()
        .filter(|metric| !baseline.contains_key(*metric));
    let mut verdicts: Vec<Verdict> = unbaselined
        .map(|metric| {
            let why = "no baseline (re-run `bench_medians emit` over the baseline dir)";
            Verdict::new(false, format!("{file} {metric}: {why}"))
        })
        .collect();
    for (metric, &base) in baseline {
        let Some(&now) = current.get(metric) else {
            let line = format!("{file} {metric}: metric vanished from the bench");
            verdicts.push(Verdict::new(false, line));
            continue;
        };
        let (ratio, line) = if metric.ends_with("_per_sec") {
            let ratio = base as f64 / now.max(1) as f64;
            let line = format!("{now}/s vs baseline {base}/s ({ratio:.2}x slowdown");
            (ratio, line)
        } else {
            let floor = base.max(NOISE_FLOOR_US);
            let ratio = now as f64 / floor as f64;
            let line = format!("{now} µs vs baseline {base} µs (floored to {floor}; {ratio:.2}x");
            (ratio, line)
        };
        verdicts.push(Verdict::new(
            ratio <= tolerance,
            format!("{file} {metric}: {line}, tolerance {tolerance:.1}x)"),
        ));
    }
    verdicts
}

/// The `BENCH_*.json` names among `present` that are not in
/// `produced`: baselines no experiment writes any more, which would
/// otherwise sit unread forever. Other file names are ignored.
#[must_use]
pub fn stale_baselines(produced: &[String], present: &[String]) -> Vec<String> {
    present
        .iter()
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .filter(|name| !produced.contains(name))
        .cloned()
        .collect()
}

/// One line of JSON: the form `emit` writes.
#[must_use]
pub fn to_json(metrics: &Metrics) -> String {
    let obj: BTreeMap<String, Json> = metrics
        .iter()
        .map(|(k, v)| (k.clone(), Json::Int(*v)))
        .collect();
    format!("{}\n", Json::Obj(obj))
}

/// Reads a baseline file written by [`to_json`].
///
/// # Errors
///
/// A message naming `path` when it is unreadable, not a JSON object,
/// or holds a non-integer metric.
pub fn read_metrics(path: &Path) -> Result<Metrics, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let Json::Obj(map) = parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))? else {
        return Err(format!("{}: expected a JSON object", path.display()));
    };
    map.into_iter()
        .map(|(k, v)| match v {
            Json::Int(n) => Ok((k, n)),
            other => Err(format!(
                "{}: metric {k:?} is not an integer ({other})",
                path.display()
            )),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(pairs: &[(&str, u64)]) -> Metrics {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    fn passes(baseline: &[(&str, u64)], current: &[(&str, u64)], tolerance: f64) -> bool {
        compare(
            "BENCH_T.json",
            &metrics(baseline),
            &metrics(current),
            tolerance,
        )
        .iter()
        .all(|v| v.ok)
    }

    #[test]
    fn a_rate_drop_past_tolerance_fails_and_a_rise_passes() {
        let base = [("settles_per_sec", 1_000_000)];
        assert!(passes(&base, &[("settles_per_sec", 400_000)], 3.0));
        assert!(!passes(&base, &[("settles_per_sec", 300_000)], 3.0));
        assert!(passes(&base, &[("settles_per_sec", 9_000_000)], 3.0));
    }

    #[test]
    fn slow_metrics_below_floor_times_tolerance_pass() {
        // A 20 µs baseline that is now 10× slower is still under the
        // floored bound of 200 × 3 µs.
        assert!(passes(&[("pair_us", 20)], &[("pair_us", 200)], 3.0));
        assert!(passes(&[("pair_us", 20)], &[("pair_us", 600)], 3.0));
        assert!(!passes(&[("pair_us", 20)], &[("pair_us", 601)], 3.0));
        // Above the floor the baseline itself is the reference.
        assert!(!passes(&[("big_us", 10_000)], &[("big_us", 30_001)], 3.0));
        assert!(passes(&[("big_us", 10_000)], &[("big_us", 1)], 3.0));
    }

    #[test]
    fn a_missing_or_extra_key_fails() {
        let base = [("a_us", 500), ("b_us", 500)];
        assert!(passes(&base, &[("a_us", 500), ("b_us", 500)], 3.0));
        let vanished = compare(
            "BENCH_T.json",
            &metrics(&base),
            &metrics(&[("a_us", 500)]),
            3.0,
        );
        assert_eq!(vanished.iter().filter(|v| !v.ok).count(), 1);
        assert!(vanished
            .iter()
            .any(|v| v.line.contains("b_us: metric vanished")));
        let extra = compare(
            "BENCH_T.json",
            &metrics(&base),
            &metrics(&[("a_us", 500), ("b_us", 500), ("c_us", 1)]),
            3.0,
        );
        assert_eq!(extra.iter().filter(|v| !v.ok).count(), 1);
        assert!(extra.iter().any(|v| v.line.contains("c_us: no baseline")));
    }

    #[test]
    fn a_baseline_file_no_experiment_produces_is_stale() {
        let produced = vec!["BENCH_E7.json".to_string(), "BENCH_E9.json".to_string()];
        let present: Vec<String> = [
            "BENCH_E7.json",
            "BENCH_E8.json",
            "BENCH_E9.json",
            "README.md",
        ]
        .map(String::from)
        .to_vec();
        assert_eq!(stale_baselines(&produced, &present), ["BENCH_E8.json"]);
        assert!(stale_baselines(&produced, &produced).is_empty());
    }

    #[test]
    fn emitted_json_reads_back() {
        let m = metrics(&[("compile_us", 4661), ("settles_per_sec", 2_837_073)]);
        let path = std::env::temp_dir().join(format!("tvg-gate-{}.json", std::process::id()));
        std::fs::write(&path, to_json(&m)).expect("temp dir is writable");
        let back = read_metrics(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, Ok(m));
    }
}
