//! Workspace reuse: one engine [`Workspace`] that answers a random
//! sequence of queries must give, for every query, exactly what a fresh
//! run gives — whatever it ran before.
//!
//! A workspace clears only what its previous run wrote (the touched
//! nodes of both frontiers and of the answer array, the moved span
//! cursors), so a missed reset shows up as a stale frontier entry or a
//! cursor past a span a later run still needs. The sequence here mixes
//! all three waiting policies; full trees, beaconing seed sets and
//! early-exit targets; and three index forms — a compiled [`TvgIndex`],
//! its mapped [`ShardedIndex`], and the [`LiveIndex`] of a churn feed
//! whose node and edge counts grow between runs. Each result is checked
//! against a fresh run and the pre-overhaul reference explorer
//! (`refengine`): arrivals, every witness, stats, the reached count and
//! the reached-node order.
//!
//! The matrix fold is pinned here too: [`MatrixSummary`] (rows reduced
//! inside the batch workers) must equal the aggregates read off the
//! stored [`ReachabilityMatrix`], and both must equal a direct count
//! over its arrivals.

use rand::Rng;
use tvg_journeys::{
    foremost_to, foremost_tree, foremost_tree_multi, Batch, ForemostTree, MatrixSummary,
    ReachabilityMatrix, SearchLimits, WaitingPolicy, Workspace,
};
use tvg_model::stream::LiveIndex;
use tvg_model::tvgi::{write_tvgi, ShardedIndex};
use tvg_model::{NodeId, Presence, TemporalIndex, Tvg, TvgBuilder, TvgIndex};
use tvg_testkit::refengine::{ref_foremost_tree, RefTree};
use tvg_testkit::tvgicheck::scratch_path;
use tvg_testkit::{fixtures, gen};

/// One query of the sequence.
#[derive(Debug, Clone)]
enum Query {
    /// An all-destinations run from one seed.
    Tree { src: NodeId, start: u64 },
    /// A beaconing source: a seed at every instant of `from..=to`.
    Beacon { src: NodeId, from: u64, to: u64 },
    /// A targeted run that stops at `dst`'s first settle.
    To {
        src: NodeId,
        dst: NodeId,
        start: u64,
    },
}

fn random_policy<R: Rng + ?Sized>(rng: &mut R) -> WaitingPolicy<u64> {
    match rng.gen_range(0..3u32) {
        0 => WaitingPolicy::NoWait,
        1 => WaitingPolicy::Bounded(rng.gen_range(0..4)),
        _ => WaitingPolicy::Unbounded,
    }
}

fn random_query<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Query {
    let node = |rng: &mut R| NodeId::from_index(rng.gen_range(0..n));
    let start = rng.gen_range(0..6u64);
    match rng.gen_range(0..3u32) {
        0 => Query::Tree {
            src: node(rng),
            start,
        },
        1 => Query::Beacon {
            src: node(rng),
            from: start,
            to: start + rng.gen_range(0..5),
        },
        _ => Query::To {
            src: node(rng),
            dst: node(rng),
            start,
        },
    }
}

/// `tree` (from the reused workspace) against a fresh run's tree and
/// the reference explorer's.
fn assert_tree_matches(
    tree: &ForemostTree<u64>,
    fresh: &ForemostTree<u64>,
    oracle: &RefTree<u64>,
    n: usize,
    label: &str,
) {
    assert_eq!(tree.stats(), fresh.stats(), "{label}: stats vs fresh");
    assert_eq!(tree.stats(), oracle.stats(), "{label}: stats vs oracle");
    for node in (0..n).map(NodeId::from_index) {
        assert_eq!(tree.arrival(node), fresh.arrival(node), "{label}: {node}");
        assert_eq!(tree.arrival(node), oracle.arrival(node), "{label}: {node}");
        let witness = tree.journey_to(node);
        assert_eq!(witness, fresh.journey_to(node), "{label}: witness {node}");
        assert_eq!(witness, oracle.journey_to(node), "{label}: witness {node}");
    }
    assert_eq!(tree.num_reached(), fresh.num_reached(), "{label}");
    assert_eq!(tree.num_reached(), oracle.num_reached(), "{label}");
    let in_id_order: Vec<NodeId> = (0..n)
        .map(NodeId::from_index)
        .filter(|&v| oracle.arrival(v).is_some())
        .collect();
    let reached: Vec<NodeId> = tree.reached_nodes().collect();
    assert_eq!(
        reached,
        fresh.reached_nodes().collect::<Vec<_>>(),
        "{label}"
    );
    assert_eq!(reached, in_id_order, "{label}: reached nodes in id order");
}

/// Runs `query` through `ws` and checks it against fresh runs.
fn assert_reuse_matches<I: TemporalIndex<u64>>(
    ws: &mut Workspace<u64>,
    index: &I,
    query: &Query,
    policy: &WaitingPolicy<u64>,
    limits: &SearchLimits<u64>,
    label: &str,
) {
    let n = index.num_nodes();
    let label = format!("{label}: {query:?} under {policy}");
    match *query {
        Query::Tree { src, start } => {
            let fresh = foremost_tree(index, src, &start, policy, limits);
            let oracle = ref_foremost_tree(index, &[(src, start)], policy, limits, None);
            let tree = ws.foremost_tree(index, src, &start, policy, limits);
            assert_tree_matches(tree, &fresh, &oracle, n, &label);
        }
        Query::Beacon { src, from, to } => {
            let seeds: Vec<(NodeId, u64)> = (from..=to).map(|t| (src, t)).collect();
            let fresh = foremost_tree_multi(index, &seeds, policy, limits);
            let oracle = ref_foremost_tree(index, &seeds, policy, limits, None);
            let tree = ws.foremost_tree_multi(index, &seeds, policy, limits);
            assert_tree_matches(tree, &fresh, &oracle, n, &label);
        }
        Query::To { src, dst, start } => {
            let oracle = ref_foremost_tree(index, &[(src, start)], policy, limits, Some(dst));
            let journey = ws.foremost_to(index, src, dst, &start, policy, limits);
            assert_eq!(
                journey,
                foremost_to(index, src, dst, &start, policy, limits),
                "{label}"
            );
            assert_eq!(journey, oracle.journey_to(dst), "{label}");
            // The partial tree of the early exit, against a fresh
            // workspace's.
            let mut fresh = Workspace::new();
            let fresh_journey = fresh.foremost_to(index, src, dst, &start, policy, limits);
            assert_eq!(journey, fresh_journey, "{label}");
            assert_tree_matches(ws.tree(), fresh.tree(), &oracle, n, &label);
        }
    }
}

#[test]
fn reused_workspace_equals_fresh_runs() {
    tvg_testkit::check("reused_workspace_equals_fresh_runs", |rng, case| {
        let mut ws = Workspace::new();
        // Static forms: a random periodic graph compiled, and mapped
        // from its `.tvgi` file.
        let g = gen::periodic_tvg(rng);
        let horizon = rng.gen_range(12..30u64);
        let compiled = TvgIndex::compile(&g, horizon);
        let path = scratch_path(&format!("workspace-reuse-{case}"));
        write_tvgi(&compiled, rng.gen_range(1..4), None, &path).expect("scratch file writes");
        let mapped = ShardedIndex::<u64>::open(&path).expect("the file just written opens");
        // The live form: a churn feed, ingested between rounds, so the
        // workspace meets node and edge counts that grow and shrink
        // from one run to the next.
        let mut script = gen::churn_script(rng);
        let live_limits = SearchLimits::new(script.final_horizon, rng.gen_range(1..8));
        let limits = SearchLimits::new(horizon, rng.gen_range(1..8));
        for (tick, batch) in script.batches.iter().enumerate() {
            script
                .stream
                .ingest(batch)
                .expect("generated feeds are valid");
            let live: &LiveIndex<u64> = script.stream.index();
            for _ in 0..4 {
                let policy = random_policy(rng);
                let label = format!("{} tick {tick}", script.label);
                match rng.gen_range(0..3u32) {
                    0 if live.num_nodes() > 0 => {
                        let q = random_query(rng, live.num_nodes());
                        assert_reuse_matches(&mut ws, live, &q, &policy, &live_limits, &label);
                    }
                    1 => {
                        let q = random_query(rng, g.num_nodes());
                        assert_reuse_matches(&mut ws, &mapped, &q, &policy, &limits, "mapped");
                    }
                    _ => {
                        let q = random_query(rng, g.num_nodes());
                        assert_reuse_matches(&mut ws, &compiled, &q, &policy, &limits, "compiled");
                    }
                }
            }
        }
        drop(mapped);
        let _ = std::fs::remove_file(&path);
    });
}

/// The aggregates of `m` counted directly from its arrivals.
struct Direct {
    histogram: Vec<(u64, u64)>,
    unreached: u64,
    ratio: f64,
    diameter: Option<u64>,
    connected: bool,
    sources: Vec<NodeId>,
    sinks: Vec<NodeId>,
}

fn direct(m: &ReachabilityMatrix<u64>, n: usize, start: u64) -> Direct {
    let mut counts = std::collections::BTreeMap::new();
    let mut unreached = 0;
    let nodes = || (0..n).map(NodeId::from_index);
    for (src, dst) in nodes().flat_map(|s| nodes().map(move |d| (s, d))) {
        if src != dst {
            match m.arrival(src, dst) {
                Some(&t) => *counts.entry(t).or_insert(0u64) += 1,
                None => unreached += 1,
            }
        }
    }
    let reachable: u64 = counts.values().sum();
    let sources: Vec<NodeId> = nodes()
        .filter(|&s| nodes().all(|d| s == d || m.arrival(s, d).is_some()))
        .collect();
    Direct {
        ratio: if n < 2 {
            1.0
        } else {
            reachable as f64 / (n * (n - 1)) as f64
        },
        diameter: counts.keys().next_back().map(|latest| latest - start),
        connected: sources.len() == n,
        sinks: nodes()
            .filter(|&d| nodes().all(|s| s == d || m.arrival(s, d).is_some()))
            .collect(),
        sources,
        histogram: counts.into_iter().collect(),
        unreached,
    }
}

/// The fused matrix plan against the stored matrix's accessors and a
/// direct count, at one thread and at four.
fn assert_fold_matches(g: &Tvg<u64>, start: u64, label: &str) {
    let limits = SearchLimits::new(30u64, 8);
    let index = TvgIndex::compile(g, limits.horizon);
    let n = g.num_nodes();
    for policy in [
        WaitingPolicy::NoWait,
        WaitingPolicy::Bounded(2),
        WaitingPolicy::Unbounded,
    ] {
        for batch in [Batch::serial(), Batch::threads(4)] {
            let label = format!("{label} under {policy} x{}", batch.num_threads());
            let m = ReachabilityMatrix::compute_on(&index, &start, &policy, &limits, batch);
            let fused = MatrixSummary::compute_on(&index, &start, &policy, &limits, batch);
            assert_eq!(&fused, m.summary(), "{label}");
            let d = direct(&m, n, start);
            let histogram: Vec<(u64, u64)> = fused.arrival_counts().map(|(t, c)| (*t, c)).collect();
            assert_eq!(histogram, d.histogram, "{label}: histogram");
            assert_eq!(fused.unreached(), d.unreached, "{label}: unreached");
            assert_eq!(fused.reachability_ratio(), d.ratio, "{label}: ratio");
            assert_eq!(m.reachability_ratio(), d.ratio, "{label}: ratio");
            assert_eq!(fused.temporal_diameter(), d.diameter, "{label}: diameter");
            assert_eq!(m.temporal_diameter(), d.diameter, "{label}: diameter");
            assert_eq!(fused.is_temporally_connected(), d.connected, "{label}");
            assert_eq!(m.is_temporally_connected(), d.connected, "{label}");
            assert_eq!(fused.temporal_sources(), d.sources, "{label}: sources");
            assert_eq!(m.temporal_sources(), d.sources, "{label}: sources");
            assert_eq!(fused.temporal_sinks(), d.sinks, "{label}: sinks");
            assert_eq!(m.temporal_sinks(), d.sinks, "{label}: sinks");
            assert_eq!(fused.stats(), m.stats(), "{label}: stats");
            assert_eq!(fused.stats().runs, n as u64, "{label}: one run per source");
        }
    }
}

/// `n` nodes and no edges: nobody reaches anybody.
fn disconnected(n: usize) -> Tvg<u64> {
    let mut b = TvgBuilder::new();
    b.nodes(n);
    b.build().expect("an edgeless graph is valid")
}

/// Two nodes joined by one edge present from `at` on.
fn pair(at: u64) -> Tvg<u64> {
    let mut b = TvgBuilder::new();
    let v = b.nodes(2);
    b.edge(
        v[0],
        v[1],
        'a',
        Presence::Window {
            from: at,
            until: 30,
        },
        tvg_model::Latency::unit(),
    )
    .expect("valid");
    b.build().expect("valid")
}

#[test]
fn matrix_fold_equals_the_stored_matrix() {
    tvg_testkit::check_with(
        tvg_testkit::Config::named_with_cases("matrix_fold_equals_the_stored_matrix", 16),
        |rng, case| {
            let g = gen::periodic_tvg(rng);
            assert_fold_matches(&g, rng.gen_range(0..4), &format!("periodic case {case}"));
        },
    );
    assert_fold_matches(&fixtures::commuter_line(), 0, "commuter line");
    assert_fold_matches(&fixtures::ring_bus(6, 6), 1, "ring bus");
    assert_fold_matches(&disconnected(1), 0, "n = 1");
    assert_fold_matches(&pair(3), 2, "n = 2");
    assert_fold_matches(&disconnected(2), 0, "n = 2, no edges");
    // 70 isolated nodes: a null diameter, no sources, no sinks, and a
    // reached set spanning two bitset words.
    assert_fold_matches(&disconnected(70), 0, "disconnected");
}
