//! Incremental repair of foremost trees as a streamed schedule grows.
//!
//! A [`crate::ForemostTree`] answers "when does every node first hear
//! from the source?" against one fixed schedule. Under streaming
//! ingestion ([`tvg_model::stream`]) the schedule changes after every
//! batch of edge events, and rerunning [`crate::foremost_tree`] from
//! scratch repeats all the work the batch could not have invalidated.
//! [`IncrementalForemost`] keeps the explorer's internal state alive
//! between batches and repairs it instead:
//!
//! 1. **Prune.** Every accepted stream event changes presence only at
//!    or after its own instant, and the earliest such instant `t₀`
//!    arrives with the batch's
//!    [`tvg_model::stream::IngestReport::earliest_change`]. Because
//!    latencies are non-negative, a crossing departing at or after `t₀`
//!    also *arrives* at or after `t₀` — so every settled conclusion with
//!    arrival before `t₀` is untouchable, and everything at or after it
//!    is discarded (additions can improve those arrivals, a `Down`
//!    closing an open span can invalidate them; discarding handles
//!    both).
//! 2. **Replay.** Surviving configurations are re-expanded against the
//!    *new* schedule, in the exact global order a fresh run would have
//!    expanded them. Crossings landing before `t₀` find their targets
//!    already settled and are skipped; crossings into the repaired
//!    region re-enter the queue. Under `NoWait` and `Bounded(d)` most
//!    survivors are *frozen*: a traveller settled at `t` must leave by
//!    `t + d`, so when that window closes before `t₀` and every crossing
//!    the configuration took last time also arrived before `t₀`, the
//!    batch cannot change what it reaches. The exact explorer logs each
//!    expansion's crossing count and latest arrival, and re-expands
//!    only the configurations that are not frozen.
//! 3. **Drain.** The ordinary exploration loop finishes the repaired
//!    region.
//!
//! For the exact explorers (`NoWait` / `Bounded`) this reproduces a
//! fresh run's arrivals *and* parent structure bit for bit — the
//! `streamcheck` differential oracle in `tvg-testkit` asserts witness
//! journeys hop by hop. The Pareto explorer (`Unbounded`) reproduces
//! arrivals and witness hop counts exactly; on exact ties between
//! equally-foremost routes the surviving witness may differ from the
//! fresh run's pick (label ids — the final tiebreak — are allocation
//! order, which repair does not replay), so the oracle checks those
//! witnesses semantically: same arrival, same hops, validates.
//!
//! The work saved is the point, stated precisely: per refresh, the
//! *settling* work is bounded by the repaired region (the churn). For
//! the exact explorers the re-expansion work is bounded by the
//! configurations whose waiting window or crossings reach `t₀` (the
//! window); the rest of the history costs one scan of its log, not a
//! sort and re-expansion. A refresh therefore costs `O(window + churn)`
//! where the recompute baseline pays `O(accumulated schedule + full
//! exploration)` every tick. The core keeps its per-edge span cursors
//! between refreshes and the tree its reached-node list: prune and
//! replay walk only the reached nodes (the only ones holding
//! configurations after a full drain), and each drain or replay
//! rewinds only the cursors the previous one moved, so a refresh pays
//! no O(n + m) set-up. The Pareto explorer (`Unbounded`) still
//! re-expands its whole surviving frontier, `O(frontier + churn)`: an
//! unbounded window never closes. The `stream_props` work-reuse
//! property pins the settle ratio, and the `bench_medians` E9 entry
//! (in `tvg-bench`) measures the end-to-end gap on the scale-free feed
//! and the repair alone on a churn feed.

use crate::engine::{EngineStats, ExactCore, ForemostTree, ParetoCore};
use crate::{Journey, SearchLimits, WaitingPolicy};
use tvg_model::stream::IngestReport;
use tvg_model::{NodeId, TemporalIndex, Time};

/// A foremost tree that stays current across ingest batches by
/// repairing itself instead of recomputing.
///
/// ```
/// use tvg_journeys::{IncrementalForemost, SearchLimits, WaitingPolicy};
/// use tvg_model::stream::{StreamEvent, TvgStream};
/// use tvg_model::Latency;
///
/// let mut s = TvgStream::<u64>::new(10)?;
/// let (u, v) = (s.add_node("u"), s.add_node("v"));
/// let e = s.add_edge(u, v, 'a', Latency::unit())?;
/// let limits = SearchLimits::new(10, 5);
/// let mut inc = IncrementalForemost::new(
///     s.index(), &[(u, 0)], WaitingPolicy::Unbounded, limits);
/// assert_eq!(inc.arrival(v), None);
///
/// let report = s.ingest(&[StreamEvent::Up { edge: e, at: 3 }])?;
/// inc.refresh(s.index(), &report);
/// assert_eq!(inc.arrival(v), Some(&4));
/// # Ok::<(), tvg_model::stream::StreamError<u64>>(())
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalForemost<T> {
    seeds: Vec<(NodeId, T)>,
    /// Node-count high-water mark at the last seeding pass. Seeds
    /// naming a node beyond it are *deferred*: under churn (node join
    /// and leave events in the feed) a source may not have joined the
    /// stream yet when the tree is created, and it enters the
    /// exploration on the first refresh that sees it exist.
    known_nodes: usize,
    policy: WaitingPolicy<T>,
    limits: SearchLimits<T>,
    /// The current answers; its stats accumulate over every refresh.
    tree: ForemostTree<T>,
    core: Core<T>,
}

/// The explorer state kept between refreshes.
#[derive(Debug, Clone)]
enum Core<T> {
    Exact(ExactCore<T>),
    Pareto(ParetoCore<T>),
}

impl<T: Time> IncrementalForemost<T> {
    /// Runs the initial full exploration from `seeds` and keeps the
    /// explorer state for later repairs. Seeds naming a node the index
    /// does not hold yet (a source that joins the stream later) are
    /// deferred, not rejected: they enter the exploration on the first
    /// [`IncrementalForemost::refresh`] after their node exists.
    #[must_use]
    pub fn new<I: TemporalIndex<T>>(
        index: &I,
        seeds: &[(NodeId, T)],
        policy: WaitingPolicy<T>,
        limits: SearchLimits<T>,
    ) -> Self {
        let n = index.num_nodes();
        let mut tree = ForemostTree::for_nodes(n);
        let live = seeds.iter().filter(|(s, _)| s.index() < n);
        let core = match &policy {
            WaitingPolicy::Unbounded => {
                let mut core = ParetoCore::new();
                core.resize(n);
                core.seed(&mut tree, live);
                core.drain(&mut tree, index, &limits, None);
                Core::Pareto(core)
            }
            _ => {
                let mut core = ExactCore::logged(n);
                core.seed(&mut tree, live);
                core.drain(&mut tree, index, &policy, &limits, None);
                Core::Exact(core)
            }
        };
        IncrementalForemost {
            seeds: seeds.to_vec(),
            known_nodes: n,
            policy,
            limits,
            tree,
            core,
        }
    }

    /// Brings the tree up to date after one ingested batch, repairing
    /// only from the batch's earliest presence change onward (a pure
    /// topology batch just grows the per-node state).
    pub fn refresh<I: TemporalIndex<T>>(&mut self, index: &I, report: &IngestReport<T>) {
        match &report.earliest_change {
            Some(t0) => self.refresh_since(index, t0),
            None => {
                self.resize(index);
                // A pure topology batch can still make a deferred seed's
                // node exist (`NewNode`); explore from it now so its own
                // arrival is settled before any presence arrives.
                let n = index.num_nodes();
                let prev = std::mem::replace(&mut self.known_nodes, n);
                let late: Vec<&(NodeId, T)> = self
                    .seeds
                    .iter()
                    .filter(|(s, _)| (prev..n).contains(&s.index()))
                    .collect();
                if !late.is_empty() {
                    let tree = &mut self.tree;
                    tree.stats.runs += 1;
                    match &mut self.core {
                        Core::Exact(core) => {
                            core.seed(tree, late);
                            core.drain(tree, index, &self.policy, &self.limits, None);
                        }
                        Core::Pareto(core) => {
                            core.seed(tree, late);
                            core.drain(tree, index, &self.limits, None);
                        }
                    }
                }
            }
        }
    }

    /// [`IncrementalForemost::refresh`] from an explicit repair
    /// watermark: every conclusion with arrival `>= since` is discarded
    /// and recomputed against the current index. Passing a watermark
    /// earlier than the true earliest change is always sound (it merely
    /// repairs more); passing a later one is not.
    pub fn refresh_since<I: TemporalIndex<T>>(&mut self, index: &I, since: &T) {
        self.resize(index);
        let n = index.num_nodes();
        let prev = std::mem::replace(&mut self.known_nodes, n);
        let seeds = &self.seeds;
        // Re-seed what the prune discarded (`t >= since`), plus any
        // deferred seed whose node joined since the last pass — its
        // settled state never existed, whatever its seed time.
        let to_seed = move |seed: &&(NodeId, T)| {
            seed.0.index() < n && (&seed.1 >= since || seed.0.index() >= prev)
        };
        let tree = &mut self.tree;
        tree.stats.runs += 1;
        match &mut self.core {
            Core::Exact(core) => {
                core.prune(tree, since);
                core.replay(tree, index, &self.policy, &self.limits, since);
                core.seed(tree, seeds.iter().filter(to_seed));
                core.drain(tree, index, &self.policy, &self.limits, None);
            }
            Core::Pareto(core) => {
                core.prune(tree, since);
                core.replay(tree, index, &self.limits);
                core.seed(tree, seeds.iter().filter(to_seed));
                core.drain(tree, index, &self.limits, None);
            }
        }
    }

    /// Forces the next repair to re-expand every surviving
    /// configuration (see `ExactCore::invalidate_log`).
    #[cfg(test)]
    fn invalidate_log(&mut self, reach: &T) {
        if let Core::Exact(core) = &mut self.core {
            core.invalidate_log(reach);
        }
    }

    fn resize<I: TemporalIndex<T>>(&mut self, index: &I) {
        let n = index.num_nodes();
        self.tree.resize(n);
        match &mut self.core {
            Core::Exact(core) => core.resize(n),
            Core::Pareto(core) => core.resize(n),
        }
    }

    /// The seed configurations the tree answers for.
    #[must_use]
    pub fn seeds(&self) -> &[(NodeId, T)] {
        &self.seeds
    }

    /// The waiting policy of the exploration.
    #[must_use]
    pub fn policy(&self) -> &WaitingPolicy<T> {
        &self.policy
    }

    /// The search limits of the exploration.
    #[must_use]
    pub fn limits(&self) -> &SearchLimits<T> {
        &self.limits
    }

    /// The foremost arrival at `n` under the current schedule, `None`
    /// if unreachable within the limits.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range for the indexed graph.
    #[must_use]
    pub fn arrival(&self, n: NodeId) -> Option<&T> {
        self.tree.arrival(n)
    }

    /// A foremost witness journey to `n` (empty for a seed node),
    /// rebuilt on demand from the repaired parent structure.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range for the indexed graph.
    #[must_use]
    pub fn journey_to(&self, n: NodeId) -> Option<Journey<T>> {
        self.tree.journey_to(n)
    }

    /// Number of nodes currently reached (seeds included).
    #[must_use]
    pub fn num_reached(&self) -> usize {
        self.tree.num_reached()
    }

    /// Cumulative work counters: `runs` counts the initial run plus one
    /// per repairing refresh; `settled`/`expanded` accumulate, so the
    /// total is directly comparable against the recompute strategy's
    /// sum of fresh runs (the E9 benchmark's accounting).
    ///
    /// `expanded` counts every crossing of every replayed
    /// configuration, whether re-expanded or credited from the log of a
    /// frozen one, so it equals the count of a repair that re-expands
    /// the whole surviving frontier.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.tree.stats()
    }

    /// A snapshot of the current answers as an ordinary
    /// [`ForemostTree`] (cloned out of the live state).
    #[must_use]
    pub fn tree(&self) -> ForemostTree<T> {
        self.tree.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::foremost_tree_multi;
    use tvg_model::generators::{peer_lifecycle_churn, scale_free_temporal};
    use tvg_model::stream::{StreamEvent, TvgStream};
    use tvg_model::{Latency, TvgIndex};

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn policies() -> [WaitingPolicy<u64>; 3] {
        [
            WaitingPolicy::NoWait,
            WaitingPolicy::Bounded(2),
            WaitingPolicy::Unbounded,
        ]
    }

    /// Repaired answers must match a fresh run on the recompiled
    /// accumulated schedule (the in-crate smoke version of the testkit
    /// streamcheck oracle).
    fn assert_matches_fresh(stream: &TvgStream<u64>, inc: &IncrementalForemost<u64>, label: &str) {
        let g = stream.to_tvg();
        let index = TvgIndex::compile(&g, *stream.index().horizon());
        let fresh = foremost_tree_multi(&index, inc.seeds(), inc.policy(), inc.limits());
        for node in g.nodes() {
            assert_eq!(
                inc.arrival(node),
                fresh.arrival(node),
                "{label}: arrival at {node} under {}",
                inc.policy()
            );
            let (i, f) = (inc.journey_to(node), fresh.journey_to(node));
            match inc.policy() {
                WaitingPolicy::Unbounded => match (&i, &f) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.num_hops(), b.num_hops(), "{label}: hops to {node}");
                        assert_eq!(a.arrival(), b.arrival(), "{label}: witness arrival {node}");
                    }
                    (None, None) => {}
                    _ => panic!("{label}: witness existence diverges at {node}"),
                },
                // Exact explorers: the repair replays the fresh run's
                // expansion order, so parents are identical.
                _ => assert_eq!(i, f, "{label}: witness to {node} under {}", inc.policy()),
            }
        }
    }

    fn line_stream() -> (TvgStream<u64>, Vec<tvg_model::EdgeId>) {
        let mut s = TvgStream::new(30).expect("30 + 1 is representable");
        let v: Vec<NodeId> = (0..4).map(|i| s.add_node(&format!("v{i}"))).collect();
        let edges = (0..3)
            .map(|i| {
                s.add_edge(v[i], v[i + 1], 'a', Latency::unit())
                    .expect("ok")
            })
            .collect();
        (s, edges)
    }

    #[test]
    fn growth_extends_reach_incrementally() {
        for policy in policies() {
            let (mut s, e) = line_stream();
            let limits = SearchLimits::new(30, 10);
            // Seed at t=1 so the chain is live even under NoWait.
            let mut inc = IncrementalForemost::new(s.index(), &[(n(0), 1)], policy, limits);
            assert_eq!(inc.num_reached(), 1);
            let report = s
                .ingest(&[
                    StreamEvent::Up { edge: e[0], at: 1 },
                    StreamEvent::Down { edge: e[0], at: 2 },
                ])
                .expect("ok");
            inc.refresh(s.index(), &report);
            assert_matches_fresh(&s, &inc, "hop 1");
            let report = s
                .ingest(&[
                    StreamEvent::Up { edge: e[1], at: 2 },
                    StreamEvent::Down { edge: e[1], at: 3 },
                    StreamEvent::Up { edge: e[2], at: 6 },
                ])
                .expect("ok");
            inc.refresh(s.index(), &report);
            assert_matches_fresh(&s, &inc, "hops 2-3");
            assert_eq!(inc.arrival(n(2)), Some(&3));
        }
    }

    #[test]
    fn a_down_can_retract_an_arrival() {
        // While e1 is open it is presumed present through the horizon,
        // so v2 looks reachable; the Down closes the span *before* any
        // usable departure, and the repair must take the arrival back.
        let (mut s, e) = line_stream();
        let limits = SearchLimits::new(30, 10);
        let report = s
            .ingest(&[
                StreamEvent::Up { edge: e[0], at: 1 },
                StreamEvent::Down { edge: e[0], at: 2 },
                StreamEvent::Up { edge: e[1], at: 4 },
            ])
            .expect("ok");
        for policy in [WaitingPolicy::Bounded(5), WaitingPolicy::Unbounded] {
            let mut s = s.clone();
            let mut inc = IncrementalForemost::new(s.index(), &[(n(0), 0)], policy, limits.clone());
            let _ = report; // initial state built after the first batch
            assert_eq!(inc.arrival(n(2)), Some(&5), "{}", inc.policy());
            let report = s
                .ingest(&[StreamEvent::Down { edge: e[1], at: 4 }])
                .expect("zero-length close is valid");
            inc.refresh(s.index(), &report);
            assert_eq!(inc.arrival(n(2)), None, "{}", inc.policy());
            assert_matches_fresh(&s, &inc, "retraction");
        }
    }

    #[test]
    fn horizon_extension_repairs_open_edges() {
        let (mut s, e) = line_stream();
        let limits = SearchLimits::new(100, 10);
        s.ingest(&[StreamEvent::Up { edge: e[0], at: 1 }])
            .expect("ok");
        for policy in policies() {
            let mut s = s.clone();
            let mut inc = IncrementalForemost::new(s.index(), &[(n(0), 0)], policy, limits.clone());
            let report = s
                .ingest(&[StreamEvent::ExtendHorizon { to: 60 }])
                .expect("ok");
            inc.refresh(s.index(), &report);
            assert_matches_fresh(&s, &inc, "extension");
        }
    }

    #[test]
    fn new_edges_and_nodes_enter_the_tree() {
        for policy in policies() {
            let (mut s, e) = line_stream();
            let limits = SearchLimits::new(30, 10);
            let report = s
                .ingest(&[
                    StreamEvent::Up { edge: e[0], at: 1 },
                    StreamEvent::Down { edge: e[0], at: 2 },
                ])
                .expect("ok");
            let mut inc = IncrementalForemost::new(s.index(), &[(n(0), 1)], policy, limits.clone());
            let _ = report;
            let fresh_node = s.add_node("late");
            let report = s
                .ingest(&[StreamEvent::NewEdge {
                    src: n(1),
                    dst: fresh_node,
                    label: 'z',
                    latency: Latency::unit(),
                }])
                .expect("ok");
            assert_eq!(report.earliest_change, None);
            inc.refresh(s.index(), &report);
            assert_eq!(inc.arrival(fresh_node), None);
            let late_edge = tvg_model::EdgeId::from_index(3);
            let report = s
                .ingest(&[StreamEvent::Up {
                    edge: late_edge,
                    at: 2,
                }])
                .expect("ok");
            inc.refresh(s.index(), &report);
            assert_matches_fresh(&s, &inc, "late edge");
            assert!(inc.arrival(fresh_node).is_some(), "{}", inc.policy());
        }
    }

    #[test]
    fn a_source_that_joins_later_is_deferred_not_panicked() {
        // Churn feeds start from an EMPTY stream — the source named in
        // the seed list joins via `NewNode` events later. Until then the
        // tree answers "nothing reached"; once the node exists it must
        // enter the exploration on the next refresh, whichever refresh
        // path (pure topology or presence repair) sees it first.
        for policy in policies() {
            let mut s = TvgStream::<u64>::new(30).expect("30 + 1 is representable");
            let limits = SearchLimits::new(30, 10);
            let mut inc = IncrementalForemost::new(s.index(), &[(n(0), 2)], policy, limits);
            assert_eq!(inc.num_reached(), 0, "{}", inc.policy());
            // Pure-topology batch: the seed's node joins, nothing else.
            let report = s
                .ingest(&[StreamEvent::NewNode { name: "a".into() }])
                .expect("ok");
            assert_eq!(report.earliest_change, None);
            inc.refresh(s.index(), &report);
            assert_eq!(inc.arrival(n(0)), Some(&2), "{}", inc.policy());
            // Presence batch: a second node and a live edge follow.
            let report = s
                .ingest(&[
                    StreamEvent::NewNode { name: "b".into() },
                    StreamEvent::NewEdge {
                        src: n(0),
                        dst: n(1),
                        label: 'x',
                        latency: Latency::unit(),
                    },
                    StreamEvent::Up {
                        edge: tvg_model::EdgeId::from_index(0),
                        at: 2,
                    },
                ])
                .expect("ok");
            inc.refresh(s.index(), &report);
            assert_matches_fresh(&s, &inc, "late source");
            assert!(inc.arrival(n(1)).is_some(), "{}", inc.policy());
        }
    }

    #[test]
    fn refresh_since_zero_equals_fresh_everything() {
        let (mut s, e) = line_stream();
        let limits = SearchLimits::new(30, 10);
        s.ingest(&[
            StreamEvent::Up { edge: e[0], at: 1 },
            StreamEvent::Down { edge: e[0], at: 3 },
            StreamEvent::Up { edge: e[1], at: 3 },
            StreamEvent::Down { edge: e[1], at: 7 },
        ])
        .expect("ok");
        for policy in policies() {
            let mut inc = IncrementalForemost::new(s.index(), &[(n(0), 1)], policy, limits.clone());
            // Repairing from t=0 discards everything: still correct.
            inc.refresh_since(s.index(), &0);
            assert_matches_fresh(&s, &inc, "from zero");
            assert_eq!(inc.stats().runs, 2);
        }
    }

    /// `NoWait` and `Bounded(0..=4)`: every policy the exact explorer
    /// runs, with windows from one instant to five.
    fn exact_policies() -> impl Iterator<Item = WaitingPolicy<u64>> {
        std::iter::once(WaitingPolicy::NoWait).chain((0..=4).map(WaitingPolicy::Bounded))
    }

    /// Refreshes `inc` and its twin `full` with one report, after
    /// invalidating `full`'s log so that it re-expands every surviving
    /// configuration. Crediting the skipped configurations must leave
    /// counters, arrivals and witnesses equal to the full sweep's.
    fn refresh_twins<I: TemporalIndex<u64>>(
        inc: &mut IncrementalForemost<u64>,
        full: &mut IncrementalForemost<u64>,
        index: &I,
        report: &IngestReport<u64>,
        label: &str,
    ) {
        full.invalidate_log(&u64::MAX);
        inc.refresh(index, report);
        full.refresh(index, report);
        let policy = inc.policy();
        assert_eq!(
            inc.stats(),
            full.stats(),
            "{label}: counters under {policy}"
        );
        for node in (0..index.num_nodes()).map(n) {
            assert_eq!(
                inc.arrival(node),
                full.arrival(node),
                "{label}: arrival at {node} under {policy}"
            );
            assert_eq!(
                inc.journey_to(node),
                full.journey_to(node),
                "{label}: witness to {node} under {policy}"
            );
        }
    }

    /// Drives `feed` through `stream` in 16-event ticks under every
    /// exact policy, checking the twins after every tick and the
    /// repaired tree against a fresh run at the end.
    fn assert_credit_is_exact(
        stream: &TvgStream<u64>,
        feed: &[StreamEvent<u64>],
        seeds: &[(NodeId, u64)],
        label: &str,
    ) {
        let limits = SearchLimits::new(*stream.index().horizon(), 12);
        for policy in exact_policies() {
            let mut s = stream.clone();
            let mut inc = IncrementalForemost::new(s.index(), seeds, policy, limits.clone());
            let mut full = inc.clone();
            for (tick, chunk) in feed.chunks(16).enumerate() {
                let report = s.ingest(chunk).expect("generated feeds are valid");
                refresh_twins(
                    &mut inc,
                    &mut full,
                    s.index(),
                    &report,
                    &format!("{label} tick {tick}"),
                );
            }
            assert_matches_fresh(&s, &inc, label);
        }
    }

    #[test]
    fn credited_expansions_equal_a_full_sweep_on_a_replay_feed() {
        let g = scale_free_temporal(60, 32, 5);
        let (stream, feed) = TvgStream::replay_of(&g, &32).expect("32 + 1 is representable");
        assert_credit_is_exact(&stream, &feed, &[(n(0), 0), (n(7), 2)], "scale-free");
    }

    #[test]
    fn credited_expansions_equal_a_full_sweep_on_a_churn_feed() {
        // Most peers have no contact open early, so one seed reaches
        // little: seed every third initial peer at staggered instants.
        // Peers 24..28 join at the swaps: the seed at peer 25 is
        // deferred, then settles in the past of a later tick.
        let feed = peer_lifecycle_churn(24, 4, 40, 11);
        let stream = TvgStream::new(40).expect("40 + 1 is representable");
        let seeds: Vec<(NodeId, u64)> = (0..24u64)
            .step_by(3)
            .map(|i| (n(i as usize), i))
            .chain([(n(25), 1)])
            .collect();
        assert_credit_is_exact(&stream, &feed, &seeds, "churn");
    }

    #[test]
    fn a_crossing_landing_past_the_watermark_is_replayed() {
        // u's window closes before the change at 4, but its one crossing
        // (latency 5, longer than any window here) lands at 6. The prune
        // discards v@6, and only re-expanding u@1 can regenerate it.
        let mut s = TvgStream::new(30).expect("30 + 1 is representable");
        let v: Vec<NodeId> = (0..4).map(|i| s.add_node(&format!("v{i}"))).collect();
        let slow = s.add_edge(v[0], v[1], 'a', Latency::Const(5)).expect("ok");
        let other = s.add_edge(v[2], v[3], 'b', Latency::unit()).expect("ok");
        s.ingest(&[
            StreamEvent::Up { edge: slow, at: 1 },
            StreamEvent::Down { edge: slow, at: 2 },
        ])
        .expect("ok");
        let limits = SearchLimits::new(30, 10);
        for policy in [WaitingPolicy::NoWait, WaitingPolicy::Bounded(2)] {
            let mut s = s.clone();
            let mut inc = IncrementalForemost::new(s.index(), &[(v[0], 1)], policy, limits.clone());
            let mut full = inc.clone();
            assert_eq!(inc.arrival(v[1]), Some(&6), "{policy}");
            let report = s
                .ingest(&[StreamEvent::Up { edge: other, at: 4 }])
                .expect("ok");
            assert_eq!(report.earliest_change, Some(4));
            refresh_twins(&mut inc, &mut full, s.index(), &report, "slow crossing");
            assert_eq!(inc.arrival(v[1]), Some(&6), "{policy}");
            assert_matches_fresh(&s, &inc, "slow crossing");
        }
    }

    #[test]
    fn an_earlier_watermark_after_a_later_one_repairs_exactly() {
        // Latency-2 hops put crossings across both watermarks.
        let mut s = TvgStream::new(30).expect("30 + 1 is representable");
        let v: Vec<NodeId> = (0..5).map(|i| s.add_node(&format!("v{i}"))).collect();
        let edges: Vec<_> = (0..4)
            .map(|i| {
                s.add_edge(v[i], v[i + 1], 'a', Latency::Const(2))
                    .expect("ok")
            })
            .collect();
        let ups: Vec<_> = edges
            .iter()
            .zip([1, 3, 6, 9])
            .map(|(&edge, at)| StreamEvent::Up { edge, at })
            .collect();
        s.ingest(&ups).expect("ok");
        let limits = SearchLimits::new(30, 10);
        for policy in exact_policies() {
            let mut inc = IncrementalForemost::new(s.index(), &[(v[0], 1)], policy, limits.clone());
            let mut full = inc.clone();
            for since in [8, 3] {
                let report = IngestReport {
                    applied: 0,
                    earliest_change: Some(since),
                };
                let label = format!("watermark {since}");
                refresh_twins(&mut inc, &mut full, s.index(), &report, &label);
                assert_matches_fresh(&s, &inc, &label);
            }
        }
    }

    #[test]
    fn a_new_edge_and_its_up_in_one_batch_are_repaired() {
        // u@0's window reaches the change at 2 although u has crossed
        // nothing yet: it must be re-expanded to find the new edge.
        let (s, _) = line_stream();
        let limits = SearchLimits::new(30, 10);
        for d in 0..=4 {
            let policy = WaitingPolicy::Bounded(d);
            let mut s = s.clone();
            let mut inc = IncrementalForemost::new(s.index(), &[(n(0), 0)], policy, limits.clone());
            let mut full = inc.clone();
            let late = s.add_node("late");
            let report = s
                .ingest(&[
                    StreamEvent::NewEdge {
                        src: n(0),
                        dst: late,
                        label: 'z',
                        latency: Latency::unit(),
                    },
                    StreamEvent::Up {
                        edge: tvg_model::EdgeId::from_index(3),
                        at: 2,
                    },
                ])
                .expect("ok");
            assert_eq!(report.earliest_change, Some(2));
            refresh_twins(&mut inc, &mut full, s.index(), &report, "new edge");
            assert_matches_fresh(&s, &inc, "new edge");
            assert_eq!(inc.arrival(late).is_some(), d >= 2, "wait[{d}]");
        }
    }
}
