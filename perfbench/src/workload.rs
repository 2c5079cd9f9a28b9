//! The four workloads: their seeded spec texts, their set-up calls, the
//! measured call a `tvg-cli run` user waits on, and the output checks.
//!
//! A run covers a fixed set of seeded instances of its workload, so its
//! medians average over several generated graphs instead of depending on
//! one draw. Everything here goes through the public API of the
//! scenario, model, journeys and serve crates.

use std::path::Path;
use std::time::Instant;
use tvg_dynnet::json::{parse, Json};
use tvg_journeys::{EngineStats, SearchLimits, WaitingPolicy};
use tvg_model::stream::{StreamEvent, TvgStream};
use tvg_model::{narrow_tvg, Tvg, TvgIndex};
use tvg_scenarios::{compile_index, parse_specs, run_with_index, Plan, Report, Scenario};
use tvg_serve::{generate_load, serve, Answer, LoadSpec, ServeConfig, ServeOutcome, TimedRequest};

/// The seed whose report digests are stored in [`DIGESTS`]. Seed 1 is
/// held out for re-checking claims; on it, as on every other seed, the
/// self-consistency checks stand in for the digests.
pub const DEFAULT_SEED: u64 = 0;
/// Instance `i` of run seed `s` uses generator seed `base + 64·s + i`,
/// so seed 0, instance 0 is each workload's reference spec.
const SEED_STRIDE: u64 = 64;
/// Node-range shards of the sample-file index.
pub const SHARDS: u32 = 4;

/// FNV-1a 64 of each instance's canonical report bytes at
/// [`DEFAULT_SEED`], in instance order.
const DIGESTS: [(&str, &[u64]); 4] = [
    (
        "matrix-mem",
        &[
            0x3a88_01c5_285b_07c6,
            0x1127_3008_cb9f_e145,
            0xb10b_00a9_77fc_e252,
            0x4d83_2a5f_5309_4fe2,
            0x9c12_095c_46b0_f680,
            0x766c_a0a4_3531_700f,
            0x1367_2540_a5b5_3adc,
            0x9494_1eab_1ffd_1e5d,
            0x1bd5_7ecd_f9f4_3f35,
            0x708c_d420_b8ab_e915,
            0xeb8f_06b9_d483_2cec,
            0x53a6_e63b_7658_451a,
            0xf902_6364_17c1_a4b3,
            0xd146_cf6a_bb77_3860,
        ],
    ),
    (
        "sample-file",
        &[
            0xc8a6_4f8c_3042_b0b8,
            0x8fd2_f1e1_b5be_6a28,
            0xfa14_5068_9260_0883,
            0x1674_681d_50bf_ea00,
            0xa2bc_f5e3_ed1d_cf3b,
            0x94b5_2e50_3afa_0dee,
            0x8afc_da07_8f18_9ad9,
            0x64cd_2424_b957_9750,
            0xaa5b_6f6e_6812_b3da,
            0x8918_d1de_4f17_6c56,
            0x25df_3f75_ee2b_ea37,
            0xcf61_cdde_db8e_2ae9,
            0xf6d2_2532_38f6_85ee,
            0x3524_9759_8446_0026,
            0xb70a_175d_133d_dd1d,
            0x276e_22bd_d65b_141f,
        ],
    ),
    (
        "stream-churn",
        &[
            0x4fd4_1099_869d_f875,
            0x62cc_4822_1401_df79,
            0xf600_ccc1_0851_148a,
            0xb42a_02c6_7641_0f9c,
            0x539d_92e2_cac6_9b61,
            0x31bc_27b4_f663_408b,
            0x2f91_283d_6699_e85d,
            0x7e21_c673_b9d5_9210,
            0x537e_d39b_e56c_647e,
            0x864d_9948_dbc9_9363,
        ],
    ),
    (
        "serve-mixed",
        &[
            0xe28d_147b_88cb_baa8,
            0xaff3_55ab_9a76_bbda,
            0x5803_8d9c_0db7_c070,
            0x2f3b_740c_01bd_caeb,
            0x475f_8177_f6ea_99d7,
            0x974f_1106_f634_25c2,
            0x9b67_0ecf_08e0_0a58,
            0x8b79_44ed_c3eb_6f55,
            0xfc3f_0480_6d61_9ad4,
            0x4df2_6580_d1eb_bdea,
            0xa6c0_80b9_9ca2_1cfe,
            0xf289_dba9_ffe6_9b83,
            0xe10a_6f6f_eb91_2d48,
            0xa524_4065_460d_5693,
        ],
    ),
];

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MatrixMem,
    SampleFile,
    StreamChurn,
    ServeMixed,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Self> {
        [
            Workload::MatrixMem,
            Workload::SampleFile,
            Workload::StreamChurn,
            Workload::ServeMixed,
        ]
        .into_iter()
        .find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MatrixMem => "matrix-mem",
            Workload::SampleFile => "sample-file",
            Workload::StreamChurn => "stream-churn",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Seeded instances one run covers. Sized so one pass over them
    /// takes most of a 25-second run on a 2-core machine.
    pub fn instances(self) -> usize {
        match self {
            Workload::MatrixMem => 14,
            Workload::SampleFile => 16,
            Workload::StreamChurn => 10,
            Workload::ServeMixed => 14,
        }
    }

    /// The spec text of one instance, with the seed substituted.
    pub fn spec_text(self, seed: u64, instance: usize, stream_src: usize) -> String {
        let k = seed.wrapping_mul(SEED_STRIDE).wrapping_add(instance as u64);
        let s = |base: u64| base.wrapping_add(k);
        match self {
            Workload::MatrixMem => format!(
                "scenario matrix-mem\ngenerator scale_free n=3000 horizon=64 seed={}\n\
                 policy wait[3]\nplan matrix horizon=64 max_hops=16\nthreads 2\n",
                s(23)
            ),
            Workload::SampleFile => format!(
                "scenario sample-file\ngenerator scale_free n=50000 horizon=64 seed={}\n\
                 policy wait[3]\nplan matrix_sample sources=16 seed={} horizon=64 max_hops=10\n\
                 threads 2\n",
                s(97),
                s(7)
            ),
            Workload::StreamChurn => format!(
                "scenario stream-churn\ngenerator peer_lifecycle n=200 swaps=20 horizon=128 seed={}\n\
                 policy wait[4]\nplan streaming src={stream_src} horizon=128 batch=64 max_hops=16\nthreads 2\n",
                s(7)
            ),
            Workload::ServeMixed => format!(
                "scenario serve-mixed\ngenerator scale_free n=5000 horizon=64 seed={}\n\
                 policy wait[2]\nplan serve horizon=64 requests=1000 gap=1 foremost=6 matrix=3 \
                 broadcast=1 ticks=128 seed={} max_hops=12\nthreads 1\n",
                s(31),
                s(77)
            ),
        }
    }

    /// Parses one instance's spec.
    pub fn scenario(self, seed: u64, instance: usize) -> Result<Scenario, String> {
        let parse_one = |text: String| {
            let mut all = parse_specs(&text).map_err(|e| format!("{}: {e}", self.name()))?;
            match (all.pop(), all.is_empty()) {
                (Some(s), true) => Ok(s),
                _ => Err(format!("{}: expected exactly one scenario", self.name())),
            }
        };
        let s = parse_one(self.spec_text(seed, instance, 0))?;
        if self != Workload::StreamChurn {
            return Ok(s);
        }
        // Under wait[d] from instant 0, a source with no contact open by d
        // reaches nobody, and repairing its tree costs a fifth of repairing
        // one that does; which case a fixed source falls in depends on the
        // seed. The source is therefore the peer with the most contacts
        // among those that never leave and have a contact open by d.
        let deadline = match s.policy() {
            WaitingPolicy::Bounded(d) => *d,
            _ => s.plan().horizon(),
        };
        let g = s.build_graph();
        let (_, events) = s.stream_feed(&g, s.plan().horizon());
        let mut ends: Vec<(usize, usize)> = Vec::new();
        let mut contacts = vec![0usize; g.num_nodes()];
        let mut early = vec![false; g.num_nodes()];
        let mut departed = vec![false; g.num_nodes()];
        for e in &events {
            match e {
                StreamEvent::NewEdge { src, dst, .. } => {
                    ends.push((src.index(), dst.index()));
                    contacts[src.index()] += 1;
                    contacts[dst.index()] += 1;
                }
                StreamEvent::Up { edge, at } if *at <= deadline => {
                    if let Some(&(a, b)) = ends.get(edge.index()) {
                        early[a] = true;
                        early[b] = true;
                    }
                }
                StreamEvent::NodeLeave { node, .. } => departed[node.index()] = true,
                _ => {}
            }
        }
        let hub = (0..contacts.len())
            .filter(|&v| !departed[v])
            .max_by_key(|&v| (early[v], contacts[v], std::cmp::Reverse(v)))
            .ok_or("stream-churn: every peer leaves")?;
        parse_one(self.spec_text(seed, instance, hub))
    }

    /// Runs the set-up calls that take one instance from spec text to an
    /// index or feed that is ready to query. For sample-file that is the
    /// `compile_index` call, which writes `file`.
    pub fn setup(self, s: &Scenario, file: &Path) -> Result<(), String> {
        match self {
            Workload::MatrixMem => {
                let g = s.build_graph();
                let (narrowed, horizon) = narrow(&g, s.plan().horizon())?;
                std::hint::black_box(TvgIndex::compile(&narrowed, horizon).num_edge_events());
            }
            Workload::SampleFile => {
                compile_index(s, SHARDS, file).map_err(|e| e.to_string())?;
            }
            Workload::StreamChurn => {
                let g = s.build_graph();
                std::hint::black_box(s.stream_feed(&g, s.plan().horizon()));
            }
            Workload::ServeMixed => {
                let g = s.build_graph();
                std::hint::black_box(ServeInputs::new(s, &g)?);
            }
        }
        Ok(())
    }

    /// The call a `tvg-cli run` user waits on: `run_with_index` for
    /// sample-file, `Scenario::run` otherwise.
    pub fn measured_call(self, s: &Scenario, file: &Path) -> Result<(f64, Report), String> {
        let t0 = Instant::now();
        let report = match self {
            Workload::SampleFile => run_with_index(s, file).map_err(|e| e.to_string())?,
            _ => s.run(),
        };
        Ok((t0.elapsed().as_secs_f64(), report))
    }

    /// Checks one report that holds at every seed; the digest check is
    /// separate and applies at [`DEFAULT_SEED`] only.
    pub fn self_check(self, s: &Scenario, report: &Report) -> Result<(), String> {
        let doc = parse(&report.canonical_json()).map_err(|e| format!("{e:?}"))?;
        let nodes = int_at(&doc, &["graph", "nodes"])?;
        if nodes != s.generator().num_nodes() as u64 {
            return Err(format!("report has {nodes} nodes"));
        }
        match self {
            Workload::MatrixMem => {
                if report.engine_stats().runs != nodes {
                    return Err("matrix must run once per source".into());
                }
            }
            Workload::SampleFile => {
                if report.engine_stats().runs != 16 {
                    return Err("sample must run once per sampled source".into());
                }
            }
            Workload::StreamChurn => {
                let g = s.build_graph();
                let (_, events) = s.stream_feed(&g, s.plan().horizon());
                let leaves = events
                    .iter()
                    .filter(|e| matches!(e, StreamEvent::NodeLeave { .. }))
                    .count() as u64;
                let batch = match s.plan() {
                    Plan::Streaming { batch, .. } => *batch,
                    _ => return Err("stream-churn needs a streaming plan".into()),
                };
                if int_at(&doc, &["results", "departed"])? != leaves {
                    return Err("departed differs from the feed's leave events".into());
                }
                if int_at(&doc, &["results", "ticks"])? != events.len().div_ceil(batch) as u64 {
                    return Err("tick count differs from the feed".into());
                }
            }
            // Checked against a served outcome by `check_serve`.
            Workload::ServeMixed => {}
        }
        Ok(())
    }

    /// The stored digest of instance `i` at [`DEFAULT_SEED`], if any.
    pub fn stored_digest(self, instance: usize) -> Option<u64> {
        DIGESTS
            .iter()
            .find(|(name, _)| *name == self.name())
            .and_then(|(_, d)| d.get(instance).copied())
    }
}

/// The serve plan's inputs, built exactly as `Scenario::run` builds them.
pub struct ServeInputs {
    pub stream: TvgStream<u64>,
    pub ticks: Vec<Vec<StreamEvent<u64>>>,
    pub load: Vec<TimedRequest>,
    pub config: ServeConfig,
}

impl ServeInputs {
    pub fn new(s: &Scenario, g: &Tvg<u64>) -> Result<Self, String> {
        let (stream, events) = s.stream_feed(g, s.plan().horizon());
        let ticks = chop_ticks(s, &events)?;
        let load = generate_load(&load_spec(s, g)?);
        Ok(ServeInputs {
            stream,
            ticks,
            load,
            config: serve_config(s)?,
        })
    }
}

/// The serve-plan fields its inputs are built from.
struct ServePlan {
    start: u64,
    requests: usize,
    gap: u64,
    mix: (u64, u64, u64),
    ticks: usize,
    seed: u64,
}

fn serve_plan(s: &Scenario) -> Result<ServePlan, String> {
    match s.plan() {
        Plan::Serve {
            start,
            requests,
            gap,
            mix,
            ticks,
            seed,
            ..
        } => Ok(ServePlan {
            start: *start,
            requests: *requests,
            gap: *gap,
            mix: *mix,
            ticks: *ticks,
            seed: *seed,
        }),
        _ => Err("serve-mixed needs a serve plan".into()),
    }
}

/// Chops the replay feed into exactly the plan's tick count (the tail
/// ticks may be empty), as the serve plan does.
pub fn chop_ticks(
    s: &Scenario,
    events: &[StreamEvent<u64>],
) -> Result<Vec<Vec<StreamEvent<u64>>>, String> {
    let ticks = serve_plan(s)?.ticks;
    let chunk = events.len().div_ceil(ticks).max(1);
    let mut out: Vec<Vec<StreamEvent<u64>>> = events.chunks(chunk).map(<[_]>::to_vec).collect();
    out.resize(ticks, Vec::new());
    Ok(out)
}

pub fn load_spec(s: &Scenario, g: &Tvg<u64>) -> Result<LoadSpec, String> {
    let plan = serve_plan(s)?;
    Ok(LoadSpec {
        requests: plan.requests,
        mean_gap: plan.gap,
        mix: plan.mix,
        nodes: g.num_nodes(),
        seed_instant: plan.start,
        seed: plan.seed,
    })
}

pub fn serve_config(s: &Scenario) -> Result<ServeConfig, String> {
    Ok(ServeConfig {
        readers: s.batch().num_threads(),
        policy: *s.policy(),
        limits: s.limits(),
        start: serve_plan(s)?.start,
    })
}

/// The serve call timed from outside, so the teardown after
/// `ServeTiming` stops is included.
pub fn timed_serve(inputs: ServeInputs) -> Result<(f64, ServeOutcome), String> {
    let t0 = Instant::now();
    let outcome = serve(inputs.stream, &inputs.ticks, &inputs.load, &inputs.config)
        .map_err(|e| e.to_string())?;
    Ok((t0.elapsed().as_secs_f64(), outcome))
}

/// Checks a serve outcome against the report `Scenario::run` gave for
/// the same spec: the answers and counts in the canonical results, the
/// engine counters, and the publication chunk counters.
pub fn check_serve(s: &Scenario, report: &Report, outcome: &ServeOutcome) -> Result<(), String> {
    let ticks = serve_plan(s)?.ticks;
    if &serve_results(outcome, ticks) != report.results() {
        return Err("serve answers differ from Scenario::run".into());
    }
    if outcome.stats != report.engine_stats() {
        return Err("serve engine counters differ from Scenario::run".into());
    }
    let per_epoch = |key: &str| match report.timing() {
        Json::Obj(map) => map.get(key).cloned(),
        _ => None,
    };
    let arr = |f: fn(&tvg_serve::PublishStats) -> u64| {
        Some(Json::Arr(
            outcome
                .publications
                .iter()
                .map(|p| Json::Int(f(p)))
                .collect(),
        ))
    };
    if per_epoch("chunks_frozen") != arr(|p| p.chunks_frozen)
        || per_epoch("chunks_copied") != arr(|p| p.chunks_copied)
    {
        return Err("publication chunk counters differ from Scenario::run".into());
    }
    Ok(())
}

/// Narrows a graph and horizon to `u32`, as `Scenario::run` does for
/// batch plans. The workloads are chosen so narrowing applies.
pub fn narrow(g: &Tvg<u64>, horizon: u64) -> Result<(Tvg<u32>, u32), String> {
    let narrowed = narrow_tvg(g, horizon).map_err(|e| e.to_string())?;
    let horizon = u32::try_from(horizon).map_err(|e| e.to_string())?;
    Ok((narrowed, horizon))
}

/// The scenario's policy and limits in the narrowed `u32` domain.
pub fn narrow_query(s: &Scenario) -> Result<(WaitingPolicy<u32>, SearchLimits<u32>), String> {
    let horizon = u32::try_from(s.plan().horizon()).map_err(|e| e.to_string())?;
    let policy = match s.policy() {
        WaitingPolicy::NoWait => WaitingPolicy::NoWait,
        WaitingPolicy::Unbounded => WaitingPolicy::Unbounded,
        WaitingPolicy::Bounded(d) => WaitingPolicy::Bounded(
            u32::try_from(*d)
                .ok()
                .filter(|d| horizon.checked_add(*d).is_some())
                .ok_or("bounded wait does not narrow")?,
        ),
    };
    Ok((policy, SearchLimits::new(horizon, s.plan().max_hops())))
}

/// The serve plan's canonical results object, built from an outcome.
pub fn serve_results(outcome: &ServeOutcome, ticks: usize) -> Json {
    let answers = outcome
        .served
        .iter()
        .map(|s| {
            let value = match s.answer {
                Answer::Arrival(a) => a.map_or(Json::Null, Json::Int),
                Answer::Reached(n) | Answer::Informed(n) => Json::Int(n),
            };
            Json::Arr(vec![
                Json::Str(s.request.kind().to_string()),
                Json::Int(s.epoch),
                value,
            ])
        })
        .collect();
    let mut epoch_counts: std::collections::BTreeMap<u64, u64> = Default::default();
    for s in &outcome.served {
        *epoch_counts.entry(s.epoch).or_default() += 1;
    }
    obj(vec![
        ("answers", Json::Arr(answers)),
        ("epochs_published", Json::Int(outcome.epochs_published)),
        (
            "epochs_served",
            Json::Arr(
                epoch_counts
                    .into_iter()
                    .map(|(e, c)| Json::Arr(vec![Json::Int(e), Json::Int(c)]))
                    .collect(),
            ),
        ),
        ("grouped_runs", Json::Int(outcome.grouped_runs)),
        ("requests", Json::Int(outcome.served.len() as u64)),
        ("ticks", Json::Int(ticks as u64)),
    ])
}

pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn engine_json(stats: &EngineStats) -> Json {
    obj(vec![
        ("expanded", Json::Int(stats.expanded)),
        ("runs", Json::Int(stats.runs)),
        ("settled", Json::Int(stats.settled)),
    ])
}

/// An arrival histogram in the report's encoding: sorted
/// `[instant, count]` pairs plus the count that never arrived.
pub fn histogram(values: impl Iterator<Item = Option<u64>>) -> Json {
    let mut counts: std::collections::BTreeMap<u64, u64> = Default::default();
    let mut unreached = 0u64;
    for v in values {
        match v {
            Some(t) => *counts.entry(t).or_default() += 1,
            None => unreached += 1,
        }
    }
    obj(vec![
        (
            "arrivals",
            Json::Arr(
                counts
                    .into_iter()
                    .map(|(t, c)| Json::Arr(vec![Json::Int(t), Json::Int(c)]))
                    .collect(),
            ),
        ),
        ("unreached", Json::Int(unreached)),
    ])
}

/// The integer at `path` in a parsed report.
pub fn int_at(doc: &Json, path: &[&str]) -> Result<u64, String> {
    let mut at = doc;
    for key in path {
        at = match at {
            Json::Obj(map) => map.get(*key).ok_or_else(|| format!("report lacks {key}"))?,
            _ => return Err(format!("report lacks {key}")),
        };
    }
    match at {
        Json::Int(v) => Ok(*v),
        _ => Err(format!("{} is not an integer", path.join("."))),
    }
}

/// FNV-1a 64 of a byte string.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
