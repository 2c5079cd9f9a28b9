//! The traced run: each workload's pipeline re-driven through the
//! public calls `Scenario::run` and `run_with_index` make, with a span
//! recorded around every call into a layer, next to an untraced run of
//! the same instance. The counters of the traced calls must equal those
//! in the untraced report, which shows the spans time the same work.

use crate::workload::{
    check_serve, chop_ticks, engine_json, histogram, int_at, load_spec, narrow, narrow_query, obj,
    serve_config, serve_results, timed_serve, ServeInputs, Workload, SHARDS,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use tvg_dynnet::json::{parse, Json};
use tvg_journeys::{BatchRunner, IncrementalForemost, ReachabilityMatrix};
use tvg_model::tvgi::{write_tvgi, ShardedIndex};
use tvg_model::{NodeId, TemporalIndex, Time, TvgIndex};
use tvg_scenarios::{Plan, Report, Scenario};

/// Every per-layer metric with its unit, in print order. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("generate.ms", "ms"),
    ("narrow.ms", "ms"),
    ("compile.ms", "ms"),
    ("compile.edge_events", "count"),
    ("tvgi.write_ms", "ms"),
    ("tvgi.bytes", "bytes"),
    ("tvgi.open_ms", "ms"),
    ("tvgi.open_mb_per_s", "MB/s"),
    ("feed.ms", "ms"),
    ("load.ms", "ms"),
    ("ingest.ms", "ms"),
    ("ingest.events", "count"),
    ("ingest.ticks", "count"),
    ("ingest.departed", "count"),
    ("stream.tick_p50_ms", "ms"),
    ("stream.tick_p95_ms", "ms"),
    ("publish.ms", "ms"),
    ("publish.chunks_frozen", "count"),
    ("publish.chunks_copied", "count"),
    ("query.ms", "ms"),
    ("engine.runs", "count"),
    ("engine.settled", "count"),
    ("engine.expanded", "count"),
    ("engine.settles_per_s", "1/s"),
    ("reduce.ms", "ms"),
    ("refresh.ms", "ms"),
    ("refresh.settled", "count"),
    ("serve.ms", "ms"),
    ("serve.wall_ms", "ms"),
    ("serve.teardown_ms", "ms"),
    ("serve.grouped_runs", "count"),
    ("serve.runs_per_request", "ratio"),
    ("report.ms", "ms"),
    ("report.bytes", "bytes"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer values of one instance.
pub type Layers = BTreeMap<&'static str, f64>;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
}

/// Spans of one instance, kept in memory and summarised at the end.
struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.push(Span { name, start, end });
        out
    }

    /// Milliseconds spent in spans named `name`.
    fn ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) * 1e3)
            .sum()
    }

    /// Records every span's total as `<name>.ms` (`tvgi.*` spans as
    /// `<name>_ms`), plus the pipeline window's unattributed time and
    /// its overhead against the untraced call.
    fn finish(&self, window: (f64, f64), untraced_s: f64, layers: &mut Layers) {
        for (name, metric) in [
            ("generate", "generate.ms"),
            ("narrow", "narrow.ms"),
            ("compile", "compile.ms"),
            ("tvgi.write", "tvgi.write_ms"),
            ("tvgi.open", "tvgi.open_ms"),
            ("feed", "feed.ms"),
            ("load", "load.ms"),
            ("ingest", "ingest.ms"),
            ("refresh", "refresh.ms"),
            ("query", "query.ms"),
            ("reduce", "reduce.ms"),
            ("serve", "serve.ms"),
            ("report", "report.ms"),
        ] {
            if self.spans.iter().any(|s| s.name == name) {
                *layers.entry(metric).or_default() += self.ms(name);
            }
        }
        let (t0, t1) = window;
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.start >= t0 && s.end <= t1)
            .map(|s| s.end - s.start)
            .sum();
        layers.insert("trace.unattributed_ms", (t1 - t0 - covered) * 1e3);
        layers.insert(
            "trace.overhead_pct",
            100.0 * ((t1 - t0) - untraced_s) / untraced_s,
        );
    }
}

/// Runs the untraced call and the traced pipeline of one instance, in
/// the given order, and returns the instance's per-layer values. An
/// `Err` is a failed operation: a call error or a counter mismatch.
pub fn traced_instance(
    w: Workload,
    s: &Scenario,
    file: &Path,
    untraced_first: bool,
) -> Result<Layers, String> {
    let mut layers = Layers::new();
    let mut tr = Trace::new();
    if w == Workload::SampleFile {
        write_index(s, file, &mut tr, &mut layers)?;
    }
    let untraced = || w.measured_call(s, file);
    let mut first = None;
    if untraced_first {
        first = Some(untraced()?);
    }
    let (t0, t1, guard_data) = match w {
        Workload::MatrixMem => matrix_mem(s, &mut tr, &mut layers)?,
        Workload::SampleFile => sample_file(s, file, &mut tr, &mut layers)?,
        Workload::StreamChurn => stream_churn(s, &mut tr, &mut layers)?,
        Workload::ServeMixed => serve_mixed(s, &mut tr, &mut layers)?,
    };
    let (untraced_s, report) = match first {
        Some(done) => done,
        None => untraced()?,
    };
    guard_data.check(s, &report)?;
    let json = tr.span("report", || report.canonical_json());
    layers.insert("report.bytes", json.len() as f64);
    if w == Workload::ServeMixed {
        replay_publications(s, &report, &mut tr, &mut layers)?;
    }
    tr.finish((t0, t1), untraced_s, &mut layers);
    let engine_s: f64 = ["query.ms", "refresh.ms", "serve.ms"]
        .iter()
        .filter_map(|m| layers.get(m))
        .sum::<f64>()
        / 1e3;
    let settled = layers.get("engine.settled").copied().unwrap_or(0.0);
    layers.insert("engine.settles_per_s", settled / engine_s);
    Ok(layers)
}

/// What a traced pipeline produced that the untraced report must match.
enum Guard {
    /// Canonical results, engine counters and compiled edge events.
    Report {
        results: Json,
        stats: tvg_journeys::EngineStats,
        edge_events: usize,
    },
    /// A serve outcome (checked with [`check_serve`]) and edge events.
    Serve {
        outcome: Box<tvg_serve::ServeOutcome>,
        edge_events: usize,
    },
}

impl Guard {
    fn check(&self, s: &Scenario, report: &Report) -> Result<(), String> {
        let doc = parse(&report.canonical_json()).map_err(|e| format!("{e:?}"))?;
        let reported_events = int_at(&doc, &["graph", "edge_events"])?;
        let edge_events = match self {
            Guard::Report {
                results,
                stats,
                edge_events,
            } => {
                if results != report.results() {
                    return Err("traced results differ from the untraced report".into());
                }
                if *stats != report.engine_stats() {
                    return Err("traced engine counters differ from the untraced report".into());
                }
                *edge_events
            }
            Guard::Serve {
                outcome,
                edge_events,
            } => {
                check_serve(s, report, outcome)?;
                *edge_events
            }
        };
        if edge_events as u64 != reported_events {
            return Err("traced edge-event count differs from the untraced report".into());
        }
        Ok(())
    }
}

fn plan_start(s: &Scenario) -> u64 {
    match s.plan() {
        Plan::SingleSource { start, .. }
        | Plan::Matrix { start, .. }
        | Plan::MatrixSample { start, .. }
        | Plan::Streaming { start, .. }
        | Plan::Serve { start, .. } => *start,
        Plan::Broadcast { .. } => 0,
    }
}

fn engine_layers(stats: &tvg_journeys::EngineStats, layers: &mut Layers) {
    layers.insert("engine.runs", stats.runs as f64);
    layers.insert("engine.settled", stats.settled as f64);
    layers.insert("engine.expanded", stats.expanded as f64);
}

type Traced = (f64, f64, Guard);

fn matrix_mem(s: &Scenario, tr: &mut Trace, layers: &mut Layers) -> Result<Traced, String> {
    let (policy, limits) = narrow_query(s)?;
    let start = u32::try_from(plan_start(s)).map_err(|e| e.to_string())?;
    let t0 = tr.now();
    let guard = {
        let g = tr.span("generate", || s.build_graph());
        let (narrowed, horizon) = tr.span("narrow", || narrow(&g, s.plan().horizon()))?;
        let index = tr.span("compile", || TvgIndex::compile(&narrowed, horizon));
        let m = tr.span("query", || {
            ReachabilityMatrix::compute_on(&index, &start, &policy, &limits, s.batch())
        });
        let n = index.num_nodes();
        let results = tr.span("reduce", || {
            let off_diagonal = (0..n).flat_map(|src| {
                (0..n)
                    .filter(move |&dst| dst != src)
                    .map(move |dst| (NodeId::from_index(src), NodeId::from_index(dst)))
            });
            obj(vec![
                (
                    "diameter",
                    m.temporal_diameter()
                        .and_then(|d| d.to_u64())
                        .map_or(Json::Null, Json::Int),
                ),
                (
                    "histogram",
                    histogram(off_diagonal.map(|(a, b)| m.arrival(a, b).map(|t| u64::from(*t)))),
                ),
                ("ratio", Json::Num(m.reachability_ratio())),
                ("temporal_sinks", Json::Int(m.temporal_sinks().len() as u64)),
                (
                    "temporal_sources",
                    Json::Int(m.temporal_sources().len() as u64),
                ),
            ])
        });
        layers.insert("compile.edge_events", index.num_edge_events() as f64);
        engine_layers(&m.stats(), layers);
        Guard::Report {
            results,
            stats: m.stats(),
            edge_events: index.num_edge_events(),
        }
    };
    Ok((t0, tr.now(), guard))
}

/// The sample-file set-up, traced: the calls `compile_index` makes.
fn write_index(
    s: &Scenario,
    file: &Path,
    tr: &mut Trace,
    layers: &mut Layers,
) -> Result<(), String> {
    let g = tr.span("generate", || s.build_graph());
    let (narrowed, horizon) = tr.span("narrow", || narrow(&g, s.plan().horizon()))?;
    let index = tr.span("compile", || TvgIndex::compile(&narrowed, horizon));
    let spec = s.to_string();
    let summary = tr
        .span("tvgi.write", || {
            write_tvgi(&index, SHARDS, Some(&spec), file)
        })
        .map_err(|e| e.to_string())?;
    layers.insert("compile.edge_events", index.num_edge_events() as f64);
    layers.insert("tvgi.bytes", summary.bytes as f64);
    Ok(())
}

fn sample_file(
    s: &Scenario,
    file: &Path,
    tr: &mut Trace,
    layers: &mut Layers,
) -> Result<Traced, String> {
    let (policy, limits) = narrow_query(s)?;
    let start = u32::try_from(plan_start(s)).map_err(|e| e.to_string())?;
    let sources = match s.plan() {
        Plan::MatrixSample { sources, seed, .. } => {
            sample_sources(s.generator().num_nodes(), *sources, *seed)
        }
        _ => return Err("sample-file needs a matrix_sample plan".into()),
    };
    let busy_ns = AtomicU64::new(0);
    let t0 = tr.now();
    let guard = {
        let index = tr
            .span("tvgi.open", || ShardedIndex::<u32>::open(file))
            .map_err(|e| e.to_string())?;
        if index.spec() != s.to_string() {
            return Err("index file holds another spec".into());
        }
        let n = index.num_nodes();
        let (rows, stats) = tr.span("query", || {
            BatchRunner::new(&index, s.batch()).map_sources(
                &sources,
                &start,
                &policy,
                &limits,
                |_, tree| {
                    let t = Instant::now();
                    let row =
                        Json::Arr(vec![
                            histogram((0..n).map(|d| {
                                tree.arrival(NodeId::from_index(d)).map(|t| u64::from(*t))
                            })),
                            Json::Int(tree.num_reached() as u64),
                        ]);
                    let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    busy_ns.fetch_add(ns, Ordering::Relaxed);
                    row
                },
            )
        });
        let results = tr.span("reduce", || {
            obj(vec![
                ("per_source", Json::Arr(rows)),
                (
                    "sources",
                    Json::Arr(
                        sources
                            .iter()
                            .map(|s| Json::Int(s.index() as u64))
                            .collect(),
                    ),
                ),
            ])
        });
        engine_layers(&stats, layers);
        Guard::Report {
            results,
            stats,
            edge_events: index.num_edge_events(),
        }
    };
    let t1 = tr.now();
    let open_ms = tr.ms("tvgi.open");
    let bytes = layers.get("tvgi.bytes").copied().unwrap_or(0.0);
    layers.insert("tvgi.open_mb_per_s", bytes / 1e6 / (open_ms / 1e3));
    // The row reduction runs inside the query's workers; its busy time
    // is added to the assembly span's.
    layers.insert("reduce.ms", busy_ns.load(Ordering::Relaxed) as f64 / 1e6);
    Ok((t0, t1, guard))
}

/// The sampled sources of a `matrix_sample` plan: `k` distinct nodes
/// drawn with a splitmix64-driven partial Fisher–Yates shuffle, sorted.
/// The plan documents this draw; the traced guard checks it against the
/// untraced report's `sources`.
fn sample_sources(n: usize, k: usize, seed: u64) -> Vec<NodeId> {
    if k >= n {
        return (0..n).map(NodeId::from_index).collect();
    }
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let span = (n - i) as u64;
        let j = i + usize::try_from(next() % span).expect("residue below n fits usize");
        pool.swap(i, j);
    }
    let mut picked = pool[..k].to_vec();
    picked.sort_unstable();
    picked.into_iter().map(NodeId::from_index).collect()
}

fn stream_churn(s: &Scenario, tr: &mut Trace, layers: &mut Layers) -> Result<Traced, String> {
    let (src, start, batch_size) = match s.plan() {
        Plan::Streaming {
            src, start, batch, ..
        } => (*src, *start, *batch),
        _ => return Err("stream-churn needs a streaming plan".into()),
    };
    let limits = s.limits();
    let mut tick_ms: Vec<f64> = Vec::new();
    let t0 = tr.now();
    let guard = {
        let g = tr.span("generate", || s.build_graph());
        let (mut stream, events) = tr.span("feed", || s.stream_feed(&g, limits.horizon));
        let mut inc = tr.span("refresh", || {
            IncrementalForemost::new(
                stream.index(),
                &[(NodeId::from_index(src), start)],
                *s.policy(),
                limits.clone(),
            )
        });
        let mut per_tick_reached = Vec::new();
        for chunk in events.chunks(batch_size) {
            let t = Instant::now();
            let report = tr
                .span("ingest", || stream.ingest(chunk))
                .map_err(|e| e.to_string())?;
            tr.span("refresh", || inc.refresh(stream.index(), &report));
            tick_ms.push(t.elapsed().as_secs_f64() * 1e3);
            per_tick_reached.push(Json::Int(inc.num_reached() as u64));
        }
        let nodes: Vec<NodeId> = stream.index().tvg().nodes().collect();
        let (snapshot_reached, snapshot) = tr.span("query", || {
            BatchRunner::new(stream.index(), s.batch()).map_sources(
                &nodes,
                &start,
                s.policy(),
                &limits,
                |_, tree| Json::Int(tree.num_reached() as u64),
            )
        });
        let ticks = per_tick_reached.len();
        let results = tr.span("reduce", || {
            obj(vec![
                ("departed", Json::Int(stream.num_departed() as u64)),
                (
                    "final_histogram",
                    histogram(nodes.iter().map(|&n| inc.arrival(n).copied())),
                ),
                ("final_reached", Json::Int(inc.num_reached() as u64)),
                ("per_tick_reached", Json::Arr(per_tick_reached)),
                ("snapshot", engine_json(&snapshot)),
                ("snapshot_reached", Json::Arr(snapshot_reached)),
                ("ticks", Json::Int(ticks as u64)),
            ])
        });
        layers.insert("ingest.events", events.len() as f64);
        layers.insert("ingest.ticks", ticks as f64);
        layers.insert("ingest.departed", stream.num_departed() as f64);
        layers.insert("refresh.settled", inc.stats().settled as f64);
        let stats = inc.stats() + snapshot;
        engine_layers(&stats, layers);
        Guard::Report {
            results,
            stats,
            edge_events: stream.index().num_edge_events(),
        }
    };
    let t1 = tr.now();
    tick_ms.sort_by(f64::total_cmp);
    layers.insert("stream.tick_p50_ms", crate::percentile(&tick_ms, 50.0));
    layers.insert("stream.tick_p95_ms", crate::percentile(&tick_ms, 95.0));
    Ok((t0, t1, guard))
}

fn serve_mixed(s: &Scenario, tr: &mut Trace, layers: &mut Layers) -> Result<Traced, String> {
    let config = serve_config(s)?;
    let horizon = s.plan().horizon();
    let t0 = tr.now();
    let guard = {
        let g = tr.span("generate", || s.build_graph());
        let (stream, ticks) = tr.span("feed", || {
            let (stream, events) = s.stream_feed(&g, horizon);
            chop_ticks(s, &events).map(|ticks| (stream, ticks))
        })?;
        let spec = load_spec(s, &g)?;
        let load = tr.span("load", || tvg_serve::generate_load(&spec));
        let requests = load.len();
        let tick_count = ticks.len();
        let (serve_s, outcome) = tr.span("serve", || {
            timed_serve(ServeInputs {
                stream,
                ticks,
                load,
                config,
            })
        })?;
        // The guard rebuilds these results; the span times building them.
        std::hint::black_box(tr.span("reduce", || serve_results(&outcome, tick_count)));
        let edge_events = tr.span("compile", || {
            TvgIndex::compile(&g, horizon).num_edge_events()
        });
        let wall_ms = outcome.timing.wall_micros as f64 / 1e3;
        layers.insert("serve.wall_ms", wall_ms);
        layers.insert("serve.teardown_ms", serve_s * 1e3 - wall_ms);
        layers.insert("serve.grouped_runs", outcome.grouped_runs as f64);
        layers.insert(
            "serve.runs_per_request",
            outcome.stats.runs as f64 / requests as f64,
        );
        layers.insert("publish.ms", outcome.timing.publish_micros as f64 / 1e3);
        layers.insert(
            "publish.chunks_frozen",
            outcome
                .publications
                .iter()
                .map(|p| p.chunks_frozen)
                .sum::<u64>() as f64,
        );
        layers.insert(
            "publish.chunks_copied",
            outcome
                .publications
                .iter()
                .map(|p| p.chunks_copied)
                .sum::<u64>() as f64,
        );
        layers.insert("compile.edge_events", edge_events as f64);
        engine_layers(&outcome.stats, layers);
        Guard::Serve {
            outcome: Box::new(outcome),
            edge_events,
        }
    };
    Ok((t0, tr.now(), guard))
}

/// Serve ingests inside its writer thread, so ingest is timed on an
/// offline replay of the same ticks, outside the pipeline window. Every
/// snapshot is retained, as the serve ring retains every epoch, so the
/// replay's chunk counters must equal the served publications'.
fn replay_publications(
    s: &Scenario,
    report: &Report,
    tr: &mut Trace,
    layers: &mut Layers,
) -> Result<(), String> {
    let g = s.build_graph();
    let (mut stream, events) = s.stream_feed(&g, s.plan().horizon());
    let ticks = chop_ticks(s, &events)?;
    let mut last_copied = stream.index().chunks_copied();
    let mut retained = Vec::with_capacity(ticks.len() + 1);
    let mut frozen = Vec::with_capacity(ticks.len() + 1);
    let mut copied = Vec::with_capacity(ticks.len() + 1);
    let mut publish = |stream: &tvg_model::TvgStream<u64>| {
        retained.push(stream.snapshot());
        let now = stream.index().chunks_copied();
        frozen.push(Json::Int(stream.index().chunks_frozen()));
        copied.push(Json::Int(now - last_copied));
        last_copied = now;
    };
    publish(&stream);
    for tick in &ticks {
        tr.span("ingest", || stream.ingest(tick))
            .map_err(|e| e.to_string())?;
        publish(&stream);
    }
    let timing = |key: &str| match report.timing() {
        Json::Obj(map) => map.get(key).cloned(),
        _ => None,
    };
    if timing("chunks_frozen") != Some(Json::Arr(frozen))
        || timing("chunks_copied") != Some(Json::Arr(copied))
    {
        return Err("offline replay's chunk counters differ from the served epochs".into());
    }
    layers.insert("ingest.events", events.len() as f64);
    layers.insert("ingest.ticks", ticks.len() as f64);
    Ok(())
}
