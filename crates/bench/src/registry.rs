//! The measured functions behind every timing in `EXPERIMENTS.md`, one
//! registry entry per experiment.
//!
//! Each entry builds its workload once, asserts the equality (or
//! acceptance) that makes the timing meaningful, and returns named
//! medians: `{name}_us` is the median wall time of one call, and
//! `{name}_x1000_us` the median wall time of 1000 back-to-back calls,
//! for sweeps whose calls take a few microseconds or less. `bench_medians` writes
//! each entry to `BENCH_<id>.json` and gates it (see [`crate::gate`]).
//! E10 has no entry: its numbers are the byte-exact scenario goldens.

use crate::experiments::{random_periodic_automaton, staggered_automaton};
use crate::gate::Metrics;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use tvg_dynnet::broadcast::{run_broadcast, BroadcastConfig, ForwardingMode};
use tvg_dynnet::markovian::{edge_markovian_trace, EdgeMarkovianParams};
use tvg_expressivity::anbn::{anbn_word, AnbnAutomaton};
use tvg_expressivity::dilation::dilation_disagreements;
use tvg_expressivity::nowait_power::DeciderAutomaton;
use tvg_expressivity::wait_regular::{eventually_periodic_to_nfa, periodic_to_nfa};
use tvg_journeys::engine::{foremost_to, foremost_tree, foremost_tree_multi};
use tvg_journeys::{
    Batch, BatchRunner, IncrementalForemost, SearchLimits, WaitingPolicy, Workspace,
};
use tvg_langs::{machines, Alphabet, Grammar, Word};
use tvg_model::generators::{
    peer_lifecycle_churn, random_periodic_tvg, ring_bus_tvg, scale_free_temporal,
    RandomPeriodicParams,
};
use tvg_model::stream::{LiveIndex, StreamEvent, TvgStream};
use tvg_model::tvgi::{write_tvgi, ShardedIndex};
use tvg_model::{narrow_tvg, EdgeId, NodeId, TemporalIndex, Time, Tvg, TvgIndex};
use tvg_serve::{generate_load, serve, LoadSpec, ServeConfig, ServeOutcome, TimedRequest};
use tvg_testkit::refengine::ref_foremost_tree;
use tvg_testkit::{fixtures, tickscan};

/// One experiment: its id (the `E7` of `BENCH_E7.json`) and the
/// function that measures it.
pub struct Experiment {
    /// Experiment id, as in `EXPERIMENTS.md`.
    pub id: &'static str,
    /// Builds the workload, asserts it, and returns its medians.
    pub measure: fn() -> Metrics,
}

impl Experiment {
    /// The baseline file this experiment writes and is checked against.
    #[must_use]
    pub fn file(&self) -> String {
        format!("BENCH_{}.json", self.id)
    }
}

/// Every measured experiment, in `EXPERIMENTS.md` order.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        id: "E1",
        measure: e1,
    },
    Experiment {
        id: "E2",
        measure: e2,
    },
    Experiment {
        id: "E3",
        measure: e3,
    },
    Experiment {
        id: "E4",
        measure: e4,
    },
    Experiment {
        id: "E5",
        measure: e5,
    },
    Experiment {
        id: "E6",
        measure: e6,
    },
    Experiment {
        id: "E7",
        measure: e7,
    },
    Experiment {
        id: "E8",
        measure: e8,
    },
    Experiment {
        id: "E9",
        measure: e9,
    },
    Experiment {
        id: "E11",
        measure: e11,
    },
    Experiment {
        id: "E12",
        measure: e12,
    },
    Experiment {
        id: "E13",
        measure: e13,
    },
    Experiment {
        id: "E14",
        measure: e14,
    },
];

/// Calls per sample of a `*_x1000_us` metric.
const BATCH_CALLS: usize = 1000;

/// Median of `reps` samples, in whole microseconds (clamped up to 1 so
/// ratios never divide by zero).
fn median_us(reps: usize, mut sample_us: impl FnMut() -> u128) -> u64 {
    let mut samples: Vec<u128> = (0..reps).map(|_| sample_us()).collect();
    samples.sort_unstable();
    u64::try_from(samples[samples.len() / 2])
        .unwrap_or(u64::MAX)
        .max(1)
}

/// Collects one experiment's medians under the naming rule of the
/// module doc.
#[derive(Default)]
struct Medians(Metrics);

impl Medians {
    /// Records `{name}_us`: the median of `reps` timed calls of `f`.
    fn time<R>(&mut self, name: &str, reps: usize, mut f: impl FnMut() -> R) -> u64 {
        let us = median_us(reps, || {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_micros()
        });
        self.0.insert(format!("{name}_us"), us);
        us
    }

    /// Records `{name}_x1000_us`: the median of `reps` samples of
    /// [`BATCH_CALLS`] back-to-back calls of `f`.
    fn time_x1000<R>(&mut self, name: &str, reps: usize, mut f: impl FnMut() -> R) {
        let us = median_us(reps, || {
            let t = Instant::now();
            for _ in 0..BATCH_CALLS {
                std::hint::black_box(f());
            }
            t.elapsed().as_micros()
        });
        self.0.insert(format!("{name}_x{BATCH_CALLS}_us"), us);
    }

    fn set(&mut self, key: &str, value: u64) {
        self.0.insert(key.to_string(), value);
    }
}

/// The three waiting policies most experiments sweep, labelled
/// `nowait`, `bounded{d}` and `unbounded`.
fn policies<T: Time>(d: u64) -> [(String, WaitingPolicy<T>); 3] {
    [
        ("nowait".to_string(), WaitingPolicy::NoWait),
        (
            format!("bounded{d}"),
            WaitingPolicy::Bounded(T::from_u64(d)),
        ),
        ("unbounded".to_string(), WaitingPolicy::Unbounded),
    ]
}

fn word(text: &str) -> Word {
    text.parse().expect("ascii")
}

// ------------------------------------------------------------ E1–E6 --

/// E1: Figure-1 acceptance and near-miss rejection vs word length.
fn e1() -> Metrics {
    let aut = AnbnAutomaton::smallest();
    let mut m = Medians::default();
    for n in [4usize, 8, 16, 32] {
        let w = anbn_word(n);
        assert!(aut.accepts_nowait(&w), "Figure 1 must accept a^{n}b^{n}");
        m.time(&format!("accept_n{n}"), 5, || aut.accepts_nowait(&w));
    }
    for n in [4usize, 16] {
        let w = word(&format!("{}{}", "a".repeat(n), "b".repeat(n - 1)));
        assert!(
            !aut.accepts_nowait(&w),
            "Figure 1 must reject a^{n}b^{}",
            n - 1
        );
        m.time(&format!("reject_n{n}"), 5, || aut.accepts_nowait(&w));
    }
    m.0
}

/// E2: Theorem-2.1 acceptance when the schedule runs a grammar or a
/// Turing-machine decider.
fn e2() -> Metrics {
    let g = Grammar::anbn();
    let grammar = DeciderAutomaton::new(Alphabet::ab(), Arc::new(move |w| g.recognizes(w)));
    let tm = DeciderAutomaton::from_turing_machine(Alphabet::abc(), machines::anbncn(), 1_000_000);
    let mut m = Medians::default();
    for n in [4usize, 8, 16] {
        let w = word(&format!("{}{}", "a".repeat(n), "b".repeat(n)));
        assert!(
            grammar.accepts_nowait(&w),
            "grammar schedule accepts a^{n}b^{n}"
        );
        m.time(&format!("grammar_n{n}"), 5, || grammar.accepts_nowait(&w));
    }
    for n in [2usize, 4, 8] {
        let w = word(&format!(
            "{}{}{}",
            "a".repeat(n),
            "b".repeat(n),
            "c".repeat(n)
        ));
        assert!(tm.accepts_nowait(&w), "TM schedule accepts a^{n}b^{n}c^{n}");
        m.time(&format!("turing_n{n}"), 5, || tm.accepts_nowait(&w));
    }
    m.0
}

/// E3: Theorem-2.2 compiler cost — periodic TVG to NFA (and on to a
/// minimal DFA) vs period.
fn e3() -> Metrics {
    let ab = Alphabet::ab();
    let wait = WaitingPolicy::Unbounded;
    let mut m = Medians::default();
    for period in [2u64, 4, 8, 16] {
        let aut = random_periodic_automaton(7, period);
        m.time_x1000(&format!("to_nfa_p{period}"), 5, || {
            periodic_to_nfa(&aut, period, &wait, &ab).expect("periodic")
        });
        if period <= 8 {
            m.time_x1000(&format!("to_min_dfa_p{period}"), 5, || {
                let nfa = periodic_to_nfa(&aut, period, &wait, &ab).expect("periodic");
                nfa.to_dfa().minimize()
            });
            m.time_x1000(&format!("eventually_periodic_p{period}"), 5, || {
                eventually_periodic_to_nfa(&aut, period, &wait, &ab).expect("periodic")
            });
        }
    }
    m.0
}

/// E4: Theorem-2.3 — the dilated bounded-wait language equals the
/// no-wait one (asserted while timed), and the dilation itself.
fn e4() -> Metrics {
    let aut = staggered_automaton();
    let ab = Alphabet::ab();
    let limits = SearchLimits::new(40, 5);
    let mut m = Medians::default();
    for d in [1u64, 4, 16] {
        m.time(&format!("disagreements_d{d}"), 5, || {
            let witnesses = dilation_disagreements(&aut, d, &ab, 4, &limits);
            assert!(witnesses.is_empty(), "Theorem 2.3 fails at d={d}");
        });
    }
    for d in [1u64, 64, 4096] {
        m.time_x1000(&format!("dilate_d{d}"), 5, || aut.dilate(d));
    }
    m.0
}

/// E5: broadcast on edge-Markovian traces (store-carry-forward vs
/// no-wait relay), trace generation, and foremost search on rings.
fn e5() -> Metrics {
    let mut m = Medians::default();
    for n in [16usize, 32, 64] {
        let params = EdgeMarkovianParams {
            num_nodes: n,
            p_birth: 0.01,
            p_death: 0.4,
            steps: 100,
        };
        let trace = edge_markovian_trace(&mut StdRng::seed_from_u64(1), &params);
        for (label, mode) in [
            ("scf", ForwardingMode::StoreCarryForward),
            ("nowait", ForwardingMode::NoWaitRelay),
        ] {
            let config = BroadcastConfig {
                source: 0,
                mode,
                source_beacons: true,
            };
            m.time(&format!("broadcast_{label}_n{n}"), 5, || {
                run_broadcast(&trace, &config)
            });
        }
    }
    for n in [32usize, 64] {
        let params = EdgeMarkovianParams {
            num_nodes: n,
            p_birth: 0.02,
            p_death: 0.4,
            steps: 100,
        };
        m.time(&format!("trace_n{n}"), 5, || {
            edge_markovian_trace(&mut StdRng::seed_from_u64(1), &params)
        });
    }
    for n in [8usize, 16, 32] {
        let g = ring_bus_tvg(n, n as u64, 'r');
        let horizon = 4 * n as u64;
        let limits = SearchLimits::new(horizon, n + 2);
        let index = TvgIndex::compile(&g, horizon);
        let (src, dst) = (NodeId::from_index(0), NodeId::from_index(n - 1));
        for (label, policy) in policies::<u64>(2) {
            m.time_x1000(&format!("ring{n}_{label}"), 5, || {
                foremost_to(&index, src, dst, &0, &policy, &limits)
            });
        }
    }
    m.0
}

/// E6: ablations — prime-pair size in Figure 1's clock arithmetic, and
/// horizon in waiting-language extraction.
fn e6() -> Metrics {
    let mut m = Medians::default();
    let w = anbn_word(16);
    for (p, q) in [(2u64, 3u64), (13, 17), (101, 103)] {
        let aut = AnbnAutomaton::new(p, q).expect("distinct primes");
        assert!(
            aut.accepts_nowait(&w),
            "A(G) with p={p}, q={q} accepts a^16b^16"
        );
        m.time(&format!("accept_n16_p{p}_q{q}"), 5, || {
            aut.accepts_nowait(&w)
        });
    }
    let aut = staggered_automaton();
    for horizon in [8u64, 32, 128] {
        let limits = SearchLimits::new(horizon, 7);
        m.time_x1000(&format!("language_h{horizon}"), 5, || {
            aut.language_upto(&WaitingPolicy::Unbounded, &limits, 6)
        });
    }
    m.0
}

// ---------------------------------------------------------------- E7 --

/// E7: the compiled index against the tick-scan oracle. The large
/// workload is a random periodic TVG with ≥10k edge events; its index
/// rows run in the narrowed `u32` domain the scenario runtime picks for
/// horizon 512, while tick scan walks the `u64` graph. The two paper
/// fixtures run both paths in `u64`, and the index path twice: one
/// fresh workspace per query (`indexed`) and one reused workspace for
/// all of them (`reused`).
fn e7() -> Metrics {
    let params = RandomPeriodicParams {
        num_nodes: 64,
        num_edges: 256,
        period: 16,
        phase_density: 0.5,
        alphabet: Alphabet::ab(),
    };
    let g = random_periodic_tvg(&mut StdRng::seed_from_u64(7), &params);
    let horizon = 512u64;
    let events = TvgIndex::compile(&g, horizon).num_edge_events();
    assert!(
        events >= 10_000,
        "E7 workload must exceed 10k edge events, got {events}"
    );
    let src = NodeId::from_index(0);
    let dst = NodeId::from_index(g.num_nodes() - 1);
    let mut m = Medians::default();
    m.time("compile", 5, || {
        TvgIndex::compile(&g, horizon).num_edge_events()
    });

    let narrowed = narrow_tvg(&g, horizon).expect("horizon 512 fits u32");
    let h32 = u32::try_from(horizon).expect("fits u32");
    let limits32 = SearchLimits::new(h32, 24);
    let index = TvgIndex::compile(&narrowed, h32);
    let limits = SearchLimits::new(horizon, 24);
    for ((label, policy32), (_, policy)) in policies::<u32>(4).into_iter().zip(policies::<u64>(4)) {
        m.time(&format!("pair_{label}"), 5, || {
            foremost_to(&index, src, dst, &0u32, &policy32, &limits32).is_some()
        });
        m.time(&format!("tickscan_pair_{label}"), 5, || {
            tickscan::foremost_journey(&g, src, dst, &0, &policy, &limits).is_some()
        });
    }
    m.time("all_dest_unbounded", 5, || {
        foremost_tree(&index, src, &0u32, &WaitingPolicy::Unbounded, &limits32).num_reached()
    });
    let bounded4 = WaitingPolicy::Bounded(4);
    let bounded4_us = m.time("all_dest_bounded4", 3, || {
        foremost_tree(&index, src, &0u32, &bounded4, &limits32).num_reached()
    });
    m.time("tickscan_all_dest_bounded4", 3, || {
        g.nodes()
            .filter(|&d| {
                d == src
                    || tickscan::foremost_journey(
                        &g,
                        src,
                        d,
                        &0,
                        &WaitingPolicy::Bounded(4),
                        &limits,
                    )
                    .is_some()
            })
            .count()
    });
    // Throughput of the bounded-4 all-destinations run: a `_per_sec`
    // metric, so the gate inverts its ratio.
    let settled = foremost_tree(&index, src, &0u32, &bounded4, &limits32)
        .stats()
        .settled;
    m.set(
        "settles_per_sec",
        settled.saturating_mul(1_000_000) / bounded4_us,
    );

    for (name, g, horizon, max_hops) in [
        ("commuter_line", fixtures::commuter_line(), 30u64, 6usize),
        ("ring_bus_16", fixtures::ring_bus(16, 16), 64, 18),
    ] {
        let limits = SearchLimits::new(horizon, max_hops);
        let index = TvgIndex::compile(&g, horizon);
        let dst = NodeId::from_index(g.num_nodes() - 1);
        for (label, policy) in policies::<u64>(4) {
            m.time_x1000(&format!("{name}_indexed_{label}"), 5, || {
                foremost_to(&index, src, dst, &0, &policy, &limits)
            });
            // The same queries through one reused workspace: what is
            // left once the per-run O(n + m) set-up is gone.
            let mut ws = Workspace::new();
            m.time_x1000(&format!("{name}_reused_{label}"), 5, || {
                ws.foremost_to(&index, src, dst, &0, &policy, &limits)
            });
            m.time_x1000(&format!("{name}_tickscan_{label}"), 5, || {
                tickscan::foremost_journey(&g, src, dst, &0, &policy, &limits)
            });
        }
    }
    m.0
}

// ------------------------------------------------------------ E8, E12 --

/// The E8/E12 workload: a scale-free contact graph whose compiled
/// schedule holds about 550k edge events below horizon 256.
fn scale_free_20k() -> Tvg<u64> {
    scale_free_temporal(20_000, 256, 42)
}

/// E8: an all-sources batch of 97 engine runs at 1, 2, 4 and 8 worker
/// threads, asserted identical to the serial batch (stats and every
/// arrival) before it is timed.
fn e8() -> Metrics {
    let g = scale_free_20k();
    let index = TvgIndex::compile(&g, 256);
    // A stride over the id range mixes hubs (low ids) and leaves.
    let sources: Vec<NodeId> = (0..g.num_nodes())
        .step_by(g.num_nodes() / 96)
        .map(NodeId::from_index)
        .collect();
    let limits = SearchLimits::new(256, 16);
    let policy = WaitingPolicy::Bounded(4);
    let serial =
        BatchRunner::new(&index, Batch::serial()).run_sources(&sources, &0, &policy, &limits);
    let mut m = Medians::default();
    for threads in [1usize, 2, 4, 8] {
        let runner = BatchRunner::new(&index, Batch::threads(threads));
        let out = runner.run_sources(&sources, &0, &policy, &limits);
        assert_eq!(out.stats(), serial.stats(), "x{threads}: stats differ");
        for (tree, reference) in out.trees().iter().zip(serial.trees()) {
            assert!(
                g.nodes().all(|d| tree.arrival(d) == reference.arrival(d)),
                "x{threads}: thread count changed arrivals"
            );
        }
        m.time(&format!("bounded4_threads{threads}"), 5, || {
            runner
                .run_sources(&sources, &0, &policy, &limits)
                .stats()
                .runs
        });
    }
    m.0
}

/// E12: the overhauled engine cores against the pre-overhaul explorer
/// (`refengine`), on the `u64` index and the narrowed `u32` one, after
/// asserting that both engines reach the same nodes with the same
/// work counters.
fn e12() -> Metrics {
    const HORIZON: u64 = 256;
    let g = scale_free_20k();
    let index = TvgIndex::compile(&g, HORIZON);
    let narrowed = narrow_tvg(&g, HORIZON).expect("horizon 256 fits u32");
    let h32 = u32::try_from(HORIZON).expect("fits u32");
    let index32 = TvgIndex::compile(&narrowed, h32);
    let src = NodeId::from_index(0);
    let limits = SearchLimits::new(HORIZON, 32);
    let limits32 = SearchLimits::new(h32, 32);
    let mut m = Medians::default();
    for ((label, policy), (_, policy32)) in policies::<u64>(4).into_iter().zip(policies::<u32>(4)) {
        let new = foremost_tree(&index, src, &0, &policy, &limits);
        let old = ref_foremost_tree(&index, &[(src, 0)], &policy, &limits, None);
        assert_eq!(new.num_reached(), old.num_reached(), "{label}: divergence");
        assert_eq!(new.stats(), old.stats(), "{label}: stats divergence");
        m.time(&format!("ref_{label}"), 5, || {
            ref_foremost_tree(&index, &[(src, 0)], &policy, &limits, None).num_reached()
        });
        m.time(&format!("new_{label}"), 5, || {
            foremost_tree(&index, src, &0, &policy, &limits).num_reached()
        });
        m.time(&format!("new_u32_{label}"), 5, || {
            foremost_tree(&index32, src, &0u32, &policy32, &limits32).num_reached()
        });
    }
    m.0
}

// ---------------------------------------------------------------- E9 --

/// E9: keep one foremost tree (source 0, `wait[3]`) current over the
/// n=200 scale-free feed in 64-event ticks — incremental repair
/// against a per-tick recompile, asserted to agree on every arrival —
/// and repair alone over the end-to-end benchmark's stream-churn feed.
fn e9() -> Metrics {
    const BATCH: usize = 64;
    let g = scale_free_temporal(200, 64, 17);
    let (base, events) = TvgStream::replay_of(&g, &64).expect("64 + 1 is representable");
    let limits = SearchLimits::new(64, 16);
    let src = NodeId::from_index(0);
    let policy = WaitingPolicy::Bounded(3);
    let incremental = || {
        let mut stream = base.clone();
        let mut inc =
            IncrementalForemost::new(stream.index(), &[(src, 0u64)], policy, limits.clone());
        for batch in events.chunks(BATCH) {
            let report = stream.ingest(batch).expect("replay is valid");
            inc.refresh(stream.index(), &report);
        }
        g.nodes()
            .map(|n| inc.arrival(n).copied())
            .collect::<Vec<_>>()
    };
    let recompile = || {
        let mut stream = base.clone();
        let mut arrivals = Vec::new();
        for batch in events.chunks(BATCH) {
            stream.ingest(batch).expect("replay is valid");
            let g = stream.to_tvg();
            let index = TvgIndex::compile(&g, *stream.index().horizon());
            let tree = foremost_tree(&index, src, &0, &policy, &limits);
            arrivals = g.nodes().map(|n| tree.arrival(n).copied()).collect();
        }
        arrivals
    };
    assert_eq!(incremental(), recompile(), "incremental repair diverges");
    let mut m = Medians::default();
    m.time("incremental", 3, incremental);
    m.time("recompile", 3, recompile);

    // perfbench's stream-churn reference instance (seed 0, instance 0):
    // 220 joining and leaving peers, `wait[4]`, from its hub source.
    let feed = peer_lifecycle_churn(200, 20, 128, 7);
    let limits = SearchLimits::new(128, 16);
    let policy = WaitingPolicy::Bounded(4);
    let seeds = [(churn_hub(&feed, 4), 0u64)];
    let churn = || {
        let mut stream = TvgStream::new(128).expect("128 + 1 is representable");
        let mut inc = IncrementalForemost::new(stream.index(), &seeds, policy, limits.clone());
        for batch in feed.chunks(BATCH) {
            let report = stream.ingest(batch).expect("churn feeds are valid");
            inc.refresh(stream.index(), &report);
        }
        (stream, inc)
    };
    let (stream, inc) = churn();
    let fresh = foremost_tree_multi(stream.index(), &seeds, &policy, &limits);
    let nodes = || stream.index().tvg().nodes();
    assert_eq!(
        nodes().map(|n| inc.arrival(n)).collect::<Vec<_>>(),
        nodes().map(|n| fresh.arrival(n)).collect::<Vec<_>>(),
        "churn repair diverges from a fresh run on the final index"
    );
    m.time("incremental_churn", 3, churn);
    m.0
}

/// The source perfbench's stream-churn workload streams from: among the
/// peers that never leave and have a contact up by `d`, the one with the
/// most contacts (ties to the lowest id).
fn churn_hub(feed: &[StreamEvent<u64>], d: u64) -> NodeId {
    let peers = feed
        .iter()
        .filter(|e| matches!(e, StreamEvent::NewNode { .. }))
        .count();
    let mut ends: Vec<(usize, usize)> = Vec::new();
    let mut contacts = vec![0usize; peers];
    let mut early = vec![false; peers];
    let mut departed = vec![false; peers];
    for e in feed {
        match e {
            StreamEvent::NewEdge { src, dst, .. } => {
                ends.push((src.index(), dst.index()));
                contacts[src.index()] += 1;
                contacts[dst.index()] += 1;
            }
            StreamEvent::Up { edge, at } if *at <= d => {
                let (a, b) = ends[edge.index()];
                early[a] = true;
                early[b] = true;
            }
            StreamEvent::NodeLeave { node, .. } => departed[node.index()] = true,
            _ => {}
        }
    }
    (0..peers)
        .filter(|&v| !departed[v])
        .max_by_key(|&v| (early[v], contacts[v], std::cmp::Reverse(v)))
        .map(NodeId::from_index)
        .expect("swaps keep live peers")
}

// --------------------------------------------------------------- E11 --

/// E11: the serve loop (8 ingest ticks, 256 requests, `wait[3]`) at 1,
/// 2 and 4 reader threads, asserted to serve identical answers at every
/// reader count before it is timed.
fn e11() -> Metrics {
    const HORIZON: u64 = 48;
    let run = |g: &Tvg<u64>,
               ticks: &[Vec<StreamEvent<u64>>],
               requests: &[TimedRequest],
               readers|
     -> ServeOutcome {
        let (stream, _) = TvgStream::replay_of(g, &HORIZON).expect("horizon 48 is small");
        let config = ServeConfig {
            readers,
            policy: WaitingPolicy::Bounded(3),
            limits: SearchLimits::new(HORIZON, 16),
            start: 0,
        };
        serve(stream, ticks, requests, &config).expect("replay is a valid feed")
    };
    let mut m = Medians::default();
    for n in [100usize, 300] {
        let g = scale_free_temporal(n, HORIZON, 23);
        let (_, events) = TvgStream::replay_of(&g, &HORIZON).expect("horizon 48 is small");
        let ticks: Vec<_> = events
            .chunks(events.len().div_ceil(8).max(1))
            .map(<[_]>::to_vec)
            .collect();
        let requests = generate_load(&LoadSpec {
            requests: 256,
            mean_gap: 1,
            mix: (4, 2, 1),
            nodes: n,
            seed_instant: 0,
            seed: 29,
        });
        let reference = run(&g, &ticks, &requests, 1);
        for readers in [2usize, 4] {
            let outcome = run(&g, &ticks, &requests, readers);
            assert_eq!(reference.served, outcome.served, "readers={readers}");
            assert_eq!(reference.stats, outcome.stats, "readers={readers}");
        }
        for readers in [1usize, 2, 4] {
            m.time(&format!("n{n}_readers{readers}"), 5, || {
                run(&g, &ticks, &requests, readers)
            });
        }
    }
    m.0
}

// --------------------------------------------------------------- E13 --

/// Everything a snapshot had to deep-copy per epoch before publication
/// shared persistent chunks: the flat form of the live query surface.
#[allow(dead_code)] // retained wholesale: the copies are the cost
struct FlatSnapshot {
    g: Tvg<u64>,
    horizon: u64,
    presence: Vec<Vec<(u64, u64)>>,
    arrival_monotone: Vec<bool>,
    adjacency: Vec<Vec<EdgeId>>,
    dsts: Vec<NodeId>,
}

fn flat_clone(index: &LiveIndex<u64>) -> FlatSnapshot {
    let g = index.tvg().clone();
    let edges: Vec<EdgeId> = g.edges().collect();
    FlatSnapshot {
        horizon: *index.horizon(),
        presence: edges
            .iter()
            .map(|&e| index.presence(e).spans().to_vec())
            .collect(),
        arrival_monotone: edges
            .iter()
            .map(|&e| index.arrival_is_monotone(e))
            .collect(),
        adjacency: g.nodes().map(|n| index.out_edges(n).to_vec()).collect(),
        dsts: edges.iter().map(|&e| index.dst(e)).collect(),
        g,
    }
}

/// Replays `events` in 512-event ticks, publishing one retained
/// snapshot per tick with `publish` (retention forces the copy-on-write
/// a serve run's `EpochRing` would). Returns the publication wall time
/// alone, in µs: ingest is E9's job.
fn publish_us<S>(
    base: &TvgStream<u64>,
    events: &[StreamEvent<u64>],
    publish: impl Fn(&TvgStream<u64>) -> S,
) -> u128 {
    let mut stream = base.clone();
    let mut retained = vec![publish(&stream)];
    let mut nanos = 0u128;
    for tick in events.chunks(512) {
        stream.ingest(tick).expect("replay is valid");
        let t = Instant::now();
        retained.push(publish(&stream));
        nanos += t.elapsed().as_nanos();
    }
    std::hint::black_box(&retained);
    nanos / 1000
}

/// E13: O(changes) snapshot publication against deep copies, on
/// scale-free live feeds at n=1000 and n=5000 (horizon 48). At n=5000
/// persistent publication must be at least 5× cheaper.
fn e13() -> Metrics {
    let feed = |n| {
        let g = scale_free_temporal(n, 48, 13);
        TvgStream::replay_of(&g, &48).expect("48 + 1 is representable")
    };
    let flat = |s: &TvgStream<u64>| flat_clone(s.index());
    let mut m = Medians::default();
    let (base, events) = feed(1000);
    let publish = median_us(5, || publish_us(&base, &events, TvgStream::snapshot));
    m.set("publish_us", publish);
    // Published epochs per second: a `_per_sec` metric, so the gate
    // inverts its ratio.
    let epochs = events.chunks(512).len() as u64 + 1;
    m.set(
        "publish_per_sec",
        epochs.saturating_mul(1_000_000) / publish,
    );
    m.set(
        "flat_publish_us",
        median_us(3, || publish_us(&base, &events, flat)),
    );

    let (base, events) = feed(5000);
    let persistent = median_us(3, || publish_us(&base, &events, TvgStream::snapshot));
    // One deep-copy run: it retains every epoch's full copy.
    let flat_total = median_us(1, || publish_us(&base, &events, flat));
    assert!(
        flat_total >= 5 * persistent,
        "publication speedup below 5x: flat {flat_total} µs vs persistent {persistent} µs"
    );
    m.set("publish_n5000_us", persistent);
    m.set("flat_publish_n5000_us", flat_total);
    m.0
}

// --------------------------------------------------------------- E14 --

/// Structural traversal: adjacency, destination and monotone flag of
/// every edge out of every node, summed so nothing is dead code.
fn scan<T: Time, I: TemporalIndex<T>>(index: &I) -> usize {
    let mut acc = 0usize;
    for n in (0..index.num_nodes()).map(NodeId::from_index) {
        for &e in index.out_edges(n) {
            acc += index.dst(e).index() + usize::from(index.arrival_is_monotone(e));
        }
    }
    acc
}

/// E14: compile once, serialize to a 4-shard `.tvgi`, reopen, and
/// query both index forms on the n=20k scale-free graph (horizon 64).
/// Both forms must agree on every node's arrival under every policy,
/// and on the structural scan, before either is timed.
fn e14() -> Metrics {
    const HORIZON: u64 = 64;
    let g = scale_free_temporal(20_000, HORIZON, 29);
    let path = std::env::temp_dir().join(format!("tvg-bench-e14-{}.tvgi", std::process::id()));
    let mut m = Medians::default();
    m.time("compile", 3, || {
        TvgIndex::compile(&g, HORIZON).num_edge_events()
    });
    let index = TvgIndex::compile(&g, HORIZON);
    m.time("write", 3, || {
        write_tvgi(&index, 4, None, &path)
            .expect("scratch .tvgi writes")
            .bytes
    });
    m.time("open", 3, || {
        ShardedIndex::<u64>::open(&path)
            .expect("just-written file opens")
            .num_edge_events()
    });
    let mapped = ShardedIndex::<u64>::open(&path).expect("just-written file opens");
    let _ = std::fs::remove_file(&path);
    let limits = SearchLimits::new(HORIZON, 32);
    let src = NodeId::from_index(0);
    for (label, policy) in policies::<u64>(3) {
        let on_compiled = foremost_tree(&index, src, &0, &policy, &limits);
        let on_mapped = foremost_tree(&mapped, src, &0, &policy, &limits);
        assert!(
            g.nodes()
                .all(|n| on_compiled.arrival(n) == on_mapped.arrival(n)),
            "{label}: in-memory and file-backed indexes disagree"
        );
        // The bounded-3 pair keeps its original, unsuffixed names.
        let suffix = if label == "bounded3" {
            String::new()
        } else {
            format!("_{label}")
        };
        m.time(&format!("query_compiled{suffix}"), 5, || {
            foremost_tree(&index, src, &0, &policy, &limits).num_reached()
        });
        m.time(&format!("query_mapped{suffix}"), 5, || {
            foremost_tree(&mapped, src, &0, &policy, &limits).num_reached()
        });
    }
    assert_eq!(
        scan(&index),
        scan(&mapped),
        "structural scan diverges between index forms"
    );
    m.time("scan_compiled", 5, || scan(&index));
    m.time("scan_mapped", 5, || scan(&mapped));
    m.0
}

#[cfg(test)]
mod tests {
    use super::{churn_hub, REGISTRY};
    use crate::gate::stale_baselines;
    use tvg_model::generators::peer_lifecycle_churn;
    use tvg_model::NodeId;

    /// E9's churn metric repairs from the source perfbench's
    /// stream-churn reference instance streams from (peer 155).
    #[test]
    fn churn_hub_is_the_stream_churn_reference_source() {
        let feed = peer_lifecycle_churn(200, 20, 128, 7);
        assert_eq!(churn_hub(&feed, 4), NodeId::from_index(155));
    }

    /// The checked-in baselines are exactly the registry's files: one
    /// per experiment, and none that nothing produces.
    #[test]
    fn checked_in_baselines_match_the_registry() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");
        let present: Vec<String> = std::fs::read_dir(dir)
            .expect("baselines dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        let produced: Vec<String> = REGISTRY.iter().map(|e| e.file()).collect();
        assert!(stale_baselines(&produced, &present).is_empty());
        for file in &produced {
            assert!(present.contains(file), "{file} has no checked-in baseline");
        }
    }
}
