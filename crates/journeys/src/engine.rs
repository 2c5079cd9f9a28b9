//! The single-source journey engine: one pass over a compiled
//! [`TvgIndex`](tvg_model::TvgIndex) computes foremost arrivals (and
//! witness journeys) from a source to *every* node.
//!
//! Two explorers share the [`ForemostTree`] output:
//!
//! * **Unbounded waiting** uses label-correcting search with Pareto
//!   dominance on `(arrival, hops)`. Under unbounded waiting an earlier
//!   arrival can do everything a later one can (its departure window is a
//!   superset) as long as it has not spent more hops, so a label
//!   dominated in both coordinates is pruned soundly — and the hop
//!   coordinate keeps the pruning exact even when `max_hops` binds.
//! * **`NoWait` / `Bounded(d)`** retain exact `(node, time)`
//!   configuration exploration, because under restricted waiting an
//!   early arrival can be a dead end while a later one connects
//!   (the phenomenon the paper is about). The index still pays off: the
//!   waiting window is enumerated interval-by-interval instead of
//!   tick-by-tick.
//!
//! # Core layout
//!
//! Both explorers are built for cache locality:
//!
//! * **Label arena.** Every generated configuration/label lives in one
//!   bump arena of `Label`s addressed by `u32` id; parent pointers are
//!   arena ids, not map keys, so witness reconstruction is a pointer
//!   walk and the two explorers share one [`ForemostTree`].
//! * **Flat frontiers.** Each node's frontier is one flat sorted map
//!   (`FlatMap`) from configuration time to a merged generation-and-
//!   settlement record (`Conf`), laid out struct-of-arrays: an
//!   expanded crossing resolves its target with a single binary search
//!   over a dense key array, and because settle times per node are
//!   non-decreasing, fresh settles land at the tail.
//! * **Monomorphized policies.** The waiting policy is dispatched once
//!   per drain/replay into loops generic over `DeparturePolicy`, so
//!   the per-label policy branch of the old explorer is compiled away.
//! * **Queue dedup.** The exact explorer pushes a heap entry only when a
//!   crossing improves the best hop count enqueued for its target
//!   configuration (a decrease-key emulation); the old explorer pushed
//!   every admissible crossing and deduplicated at pop time.
//! * **One reusable workspace.** Every run goes through a
//!   [`Workspace`], which owns all per-run state: both explorers'
//!   per-node frontiers, the answer array, the label arena, the heaps
//!   and the per-edge span cursors. The tree lists the nodes a run
//!   reached and the exact core the edges whose cursor it moved; the
//!   frontiers hold entries only at reached nodes and, after an early
//!   exit at a [`foremost_to`] target, at the configurations still
//!   queued. The next run clears only those entries, so a run costs
//!   what it touches, not O(n + m), once the arrays have grown to the
//!   index. Batch workers and serve readers
//!   keep one workspace each; the one-shot functions build a fresh one.
//!
//! These are representation changes only: arrivals, witnesses, and
//! [`EngineStats`] are bit-identical to the pre-overhaul explorer,
//! which `tvg-testkit` keeps alive as a differential oracle
//! (`refengine`), and do not depend on what a workspace ran before.
//!
//! Every run carries its own [`EngineStats`] (run count, settled
//! configurations, expanded crossings) inside the returned tree. Stats
//! are values, not thread-local counters, so they aggregate correctly
//! when the batch runtime fans runs out over worker threads — summing
//! per-tree stats is how tests pin aggregate consumers (e.g.
//! `ReachabilityMatrix`) to "exactly n single-source runs, no per-pair
//! search", at any thread count.

use crate::{Hop, Journey, SearchLimits, WaitingPolicy};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use tvg_model::{EdgeId, NodeId, TemporalIndex, Time};

/// Work counters of one single-source engine run — or, summed, of a
/// whole batch. Returned by value with every [`ForemostTree`], so the
/// accounting stays exact when runs execute on different worker threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of single-source engine runs (1 per tree; a batch sums).
    pub runs: u64,
    /// Configurations (exact explorer) or labels (Pareto explorer)
    /// settled.
    pub settled: u64,
    /// Admissible crossings generated during expansion.
    pub expanded: u64,
}

impl EngineStats {
    fn one_run() -> Self {
        EngineStats {
            runs: 1,
            ..EngineStats::default()
        }
    }
}

impl std::ops::AddAssign for EngineStats {
    fn add_assign(&mut self, rhs: EngineStats) {
        self.runs += rhs.runs;
        self.settled += rhs.settled;
        self.expanded += rhs.expanded;
    }
}

impl std::ops::Add for EngineStats {
    type Output = EngineStats;

    fn add(mut self, rhs: EngineStats) -> EngineStats {
        self += rhs;
        self
    }
}

impl std::iter::Sum for EngineStats {
    fn sum<I: Iterator<Item = EngineStats>>(iter: I) -> EngineStats {
        iter.fold(EngineStats::default(), std::ops::Add::add)
    }
}

/// The departure-window computation of a restricted waiting policy, as
/// a trait so the exact explorer's loops monomorphize per policy instead
/// of branching per label. Implementations mirror
/// [`WaitingPolicy::latest_departure`] exactly. Unbounded waiting has no
/// implementation: it runs on [`ParetoCore`], never on [`ExactCore`].
pub(crate) trait DeparturePolicy<T: Time> {
    /// The latest admissible departure from a node reached at `ready`
    /// (never later than `horizon`), `None` if the window is empty or
    /// overflows the representation.
    fn latest(&self, ready: &T, horizon: &T) -> Option<T>;
}

/// Direct journeys: depart exactly at the ready instant.
struct NoWaitDeparture;

impl<T: Time> DeparturePolicy<T> for NoWaitDeparture {
    #[inline]
    fn latest(&self, ready: &T, horizon: &T) -> Option<T> {
        (*ready <= *horizon).then(|| ready.clone())
    }
}

/// Pauses of at most `d`: depart within `[ready, ready + d]`.
struct BoundedDeparture<T>(T);

impl<T: Time> DeparturePolicy<T> for BoundedDeparture<T> {
    #[inline]
    fn latest(&self, ready: &T, horizon: &T) -> Option<T> {
        let latest = ready.checked_add(&self.0)?.min(horizon.clone());
        (*ready <= *horizon).then_some(latest)
    }
}

/// The hop ceiling in the engine's internal `u32` hop arithmetic. A
/// `max_hops` beyond `u32::MAX` is unreachable anyway: every hop settles
/// at least one configuration, and the `u32`-indexed arena caps those.
fn hops_cap<T>(limits: &SearchLimits<T>) -> u32 {
    u32::try_from(limits.max_hops).unwrap_or(u32::MAX)
}

/// A sorted flat map laid out struct-of-arrays: binary searches touch
/// only the dense key array; values live apart. Inserts are
/// binary-search + shift, appends when the key is maximal — which is
/// the common case for per-node settle frontiers, whose keys arrive in
/// non-decreasing pop order.
#[derive(Debug, Clone)]
struct FlatMap<K, V> {
    keys: Vec<K>,
    vals: Vec<V>,
}

impl<K: Ord + Clone, V> FlatMap<K, V> {
    fn new() -> Self {
        FlatMap {
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.keys.binary_search(key).ok().map(|i| &self.vals[i])
    }

    /// Binary search: `Ok(i)` if present, `Err(i)` with the insertion
    /// point otherwise (the raw handle for insert-or-update call sites).
    ///
    /// The tail is probed first: frontier keys arrive in roughly
    /// non-decreasing order, so the hottest lookups resolve against the
    /// last entry without a full search.
    fn search(&self, key: &K) -> Result<usize, usize> {
        match self.keys.last() {
            None => Err(0),
            Some(last) => match key.cmp(last) {
                std::cmp::Ordering::Greater => Err(self.keys.len()),
                std::cmp::Ordering::Equal => Ok(self.keys.len() - 1),
                std::cmp::Ordering::Less => self.keys[..self.keys.len() - 1].binary_search(key),
            },
        }
    }

    /// Empties the map, keeping its capacity for the next run.
    fn clear(&mut self) {
        self.keys.clear();
        self.vals.clear();
    }

    fn val_mut(&mut self, i: usize) -> &mut V {
        &mut self.vals[i]
    }

    fn insert_at(&mut self, i: usize, key: K, val: V) {
        self.keys.insert(i, key);
        self.vals.insert(i, val);
    }

    /// Discards every entry with key `>= t0` (keys are sorted, so this
    /// is a truncation).
    fn truncate_from(&mut self, t0: &K) {
        let keep = self.keys.partition_point(|k| k < t0);
        self.keys.truncate(keep);
        self.vals.truncate(keep);
    }
}

/// One explored configuration/label: its arrival instant plus the
/// parent pointer `(parent arena id, edge, departure)` that realizes it
/// (`None` for seeds). Both explorers allocate these in one bump arena
/// addressed by `u32` id — witness journeys are rebuilt by walking
/// parent ids.
#[derive(Debug, Clone)]
pub(crate) struct Label<T> {
    pub(crate) time: T,
    pub(crate) parent: Option<(u32, EdgeId, T)>,
}

fn alloc_label<T>(arena: &mut Vec<Label<T>>, time: T, parent: Option<(u32, EdgeId, T)>) -> u32 {
    let id = u32::try_from(arena.len()).expect("label arena exceeds u32 capacity");
    arena.push(Label { time, parent });
    id
}

/// The all-destinations output of one single-source engine run: for each
/// node, the foremost (earliest) arrival from the seed configuration(s),
/// plus the parent structure to rebuild a witness journey on demand.
///
/// Seed nodes are reached at their seed time by the empty journey.
///
/// The one-shot functions ([`foremost_tree`], [`foremost_tree_multi`])
/// return an owned tree; a [`Workspace`] lends its tree out until its
/// next run.
#[derive(Debug, Clone)]
pub struct ForemostTree<T> {
    /// Per node: the foremost arrival and the arena id of the label
    /// realizing it, `None` while unreached.
    foremost: Vec<Option<(T, u32)>>,
    /// Every generated configuration/label of the run, addressed by id.
    arena: Vec<Label<T>>,
    /// The reached nodes in settle order, each once: what the next
    /// run's reset clears.
    reached: Vec<NodeId>,
    pub(crate) stats: EngineStats,
}

impl<T: Time> ForemostTree<T> {
    fn empty() -> Self {
        ForemostTree {
            foremost: Vec::new(),
            arena: Vec::new(),
            reached: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// An empty tree for `num_nodes` nodes that counts one run.
    pub(crate) fn for_nodes(num_nodes: usize) -> Self {
        let mut tree = ForemostTree::empty();
        tree.reset(num_nodes);
        tree
    }

    /// Forgets the previous run — only the nodes it reached are
    /// written — and sizes the per-node state for `num_nodes`. Label
    /// ids restart at 0 and the stats at one run.
    fn reset(&mut self, num_nodes: usize) {
        for n in self.reached.drain(..) {
            self.foremost[n.index()] = None;
        }
        self.foremost.resize(num_nodes, None);
        self.arena.clear();
        self.stats = EngineStats::one_run();
    }

    /// Grows the per-node state after streamed topology growth.
    pub(crate) fn resize(&mut self, num_nodes: usize) {
        self.foremost.resize(num_nodes, None);
    }

    /// Records a settle of `node` at `time` by label `id`. Returns
    /// whether it is the node's first, which is its foremost arrival.
    fn settle(&mut self, node: NodeId, time: &T, id: u32) -> bool {
        let slot = &mut self.foremost[node.index()];
        if slot.is_some() {
            return false;
        }
        *slot = Some((time.clone(), id));
        self.reached.push(node);
        true
    }

    /// Forgets every arrival at or after `t0`.
    fn prune(&mut self, t0: &T) {
        let foremost = &mut self.foremost;
        self.reached.retain(|n| {
            let slot = &mut foremost[n.index()];
            let keep = slot.as_ref().is_some_and(|(t, _)| t < t0);
            if !keep {
                *slot = None;
            }
            keep
        });
    }

    /// The foremost arrival at `n`, `None` if unreachable within the
    /// limits.
    #[must_use]
    pub fn arrival(&self, n: NodeId) -> Option<&T> {
        self.foremost[n.index()].as_ref().map(|(t, _)| t)
    }

    /// A foremost journey to `n` (empty for a seed node), `None` if
    /// unreachable within the limits. Rebuilt on demand from the parent
    /// structure.
    #[must_use]
    pub fn journey_to(&self, n: NodeId) -> Option<Journey<T>> {
        let (_, id) = self.foremost[n.index()].as_ref()?;
        Some(rebuild_labels(&self.arena, *id))
    }

    /// The reached nodes, in id order.
    pub fn reached_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut nodes = self.reached.clone();
        nodes.sort_unstable();
        nodes.into_iter()
    }

    /// The reached nodes in settle order (the engine's own bookkeeping).
    pub(crate) fn reached_unordered(&self) -> &[NodeId] {
        &self.reached
    }

    /// Number of reached nodes (seeds included).
    #[must_use]
    pub fn num_reached(&self) -> usize {
        self.reached.len()
    }

    /// Work counters of the run that produced this tree
    /// (`stats().runs == 1` for a single engine pass).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }
}

/// All the per-run state of the engine, kept between runs so that a run
/// costs what it touches: both explorers' frontiers, the label arena,
/// the heaps, the per-edge span cursors and the answer arrays. Each run
/// first clears only what the previous one wrote (at the nodes it
/// reached or left queued, and the cursors it moved), then sizes the
/// arrays for the index it is given.
///
/// A batch worker or a serve reader keeps one workspace for all its
/// runs; the one-shot functions build a fresh one per call. Results do
/// not depend on what the workspace ran before.
///
/// ```
/// use tvg_journeys::{foremost_tree, SearchLimits, WaitingPolicy, Workspace};
/// use tvg_model::{generators::ring_bus_tvg, NodeId, TvgIndex};
///
/// let g = ring_bus_tvg(4, 4, 'r');
/// let index = TvgIndex::compile(&g, 40);
/// let limits = SearchLimits::new(40, 12);
/// let mut ws = Workspace::new();
/// for src in g.nodes() {
///     let tree = ws.foremost_tree(&index, src, &0, &WaitingPolicy::Unbounded, &limits);
///     assert_eq!(tree.num_reached(), 4);
/// }
/// let (a, b) = (NodeId::from_index(0), NodeId::from_index(2));
/// let fresh = foremost_tree(&index, a, &0, &WaitingPolicy::NoWait, &limits);
/// let journey = ws.foremost_to(&index, a, b, &0, &WaitingPolicy::NoWait, &limits);
/// assert_eq!(journey, fresh.journey_to(b));
/// ```
#[derive(Debug, Clone)]
pub struct Workspace<T> {
    tree: ForemostTree<T>,
    exact: ExactCore<T>,
    pareto: ParetoCore<T>,
}

impl<T: Time> Default for Workspace<T> {
    fn default() -> Self {
        Workspace::new()
    }
}

impl<T: Time> Workspace<T> {
    /// An empty workspace; it grows to the first index it runs on.
    #[must_use]
    pub fn new() -> Self {
        Workspace {
            tree: ForemostTree::empty(),
            exact: ExactCore::new(),
            pareto: ParetoCore::new(),
        }
    }

    /// [`foremost_tree`] through this workspace; the tree is borrowed
    /// until the next run.
    pub fn foremost_tree<I: TemporalIndex<T>>(
        &mut self,
        index: &I,
        src: NodeId,
        start: &T,
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
    ) -> &ForemostTree<T> {
        self.run(index, &[(src, start.clone())], policy, limits, None)
    }

    /// [`foremost_tree_multi`] through this workspace.
    pub fn foremost_tree_multi<I: TemporalIndex<T>>(
        &mut self,
        index: &I,
        seeds: &[(NodeId, T)],
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
    ) -> &ForemostTree<T> {
        self.run(index, seeds, policy, limits, None)
    }

    /// [`foremost_to`] through this workspace. The run stops at `dst`'s
    /// first settle; [`Workspace::tree`] then holds what it settled so
    /// far, with its stats.
    pub fn foremost_to<I: TemporalIndex<T>>(
        &mut self,
        index: &I,
        src: NodeId,
        dst: NodeId,
        start: &T,
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
    ) -> Option<Journey<T>> {
        self.run(index, &[(src, start.clone())], policy, limits, Some(dst))
            .journey_to(dst)
    }

    /// The tree of the last run (empty before the first).
    #[must_use]
    pub fn tree(&self) -> &ForemostTree<T> {
        &self.tree
    }

    /// Consumes the workspace into the tree of its last run.
    #[must_use]
    pub fn into_tree(self) -> ForemostTree<T> {
        self.tree
    }

    /// Moves the last run's tree out; the next run starts its answer
    /// arrays afresh.
    pub(crate) fn take_tree(&mut self) -> ForemostTree<T> {
        self.clear_frontiers();
        std::mem::replace(&mut self.tree, ForemostTree::empty())
    }

    /// Empties the frontiers the last run filled. Only the core that
    /// ran holds any, and only at the nodes the tree lists as reached
    /// (or, after an early exit, in configurations still queued).
    fn clear_frontiers(&mut self) {
        self.exact.clear(&self.tree.reached);
        self.pareto.clear(&self.tree.reached);
    }

    fn run<I: TemporalIndex<T>>(
        &mut self,
        index: &I,
        seeds: &[(NodeId, T)],
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
        target: Option<NodeId>,
    ) -> &ForemostTree<T> {
        let n = index.num_nodes();
        self.clear_frontiers();
        let tree = &mut self.tree;
        tree.reset(n);
        if let WaitingPolicy::Unbounded = policy {
            self.pareto.resize(n);
            self.pareto.seed(tree, seeds);
            self.pareto.drain(tree, index, limits, target);
        } else {
            self.exact.resize(n);
            self.exact.seed(tree, seeds);
            self.exact.drain(tree, index, policy, limits, target);
        }
        &self.tree
    }
}

/// One single-source foremost run from `(src, start)` over a compiled
/// index (batch-compiled or live): foremost arrivals to every node in
/// one pass.
///
/// Departures are bounded by `limits.horizon` (the index's own horizon
/// also applies) and journeys by `limits.max_hops` hops.
#[must_use]
pub fn foremost_tree<T: Time, I: TemporalIndex<T>>(
    index: &I,
    src: NodeId,
    start: &T,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> ForemostTree<T> {
    foremost_tree_multi(index, &[(src, start.clone())], policy, limits)
}

/// [`foremost_tree`] from several seed configurations at once.
///
/// A node's foremost arrival is the earliest over journeys from *any*
/// seed. Multiple seeds model sources that re-emit over time (e.g. a
/// beaconing broadcast source is a seed at every step).
#[must_use]
pub fn foremost_tree_multi<T: Time, I: TemporalIndex<T>>(
    index: &I,
    seeds: &[(NodeId, T)],
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> ForemostTree<T> {
    let mut ws = Workspace::new();
    ws.foremost_tree_multi(index, seeds, policy, limits);
    ws.into_tree()
}

/// A single-target foremost query with early exit: the run stops as soon
/// as `dst` settles (its first settle is already foremost), skipping the
/// rest of the configuration space. This is what the per-pair
/// `foremost_journey` wrapper uses; all-destinations consumers use
/// [`foremost_tree`] instead.
#[must_use]
pub fn foremost_to<T: Time, I: TemporalIndex<T>>(
    index: &I,
    src: NodeId,
    dst: NodeId,
    start: &T,
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
) -> Option<Journey<T>> {
    Workspace::new().foremost_to(index, src, dst, start, policy, limits)
}

/// Maps an arrival configuration to `(parent node, parent ready time,
/// edge, departure)` — the same parent structure as the tick-scan
/// reference search, so reconstructed journeys match it hop for hop.
/// Used by `search::shortest_journey`, which builds the same map.
pub(crate) type ParentMap<T> = BTreeMap<(NodeId, T), (NodeId, T, EdgeId, T)>;

pub(crate) fn rebuild<T: Time>(parents: &ParentMap<T>, mut state: (NodeId, T)) -> Journey<T> {
    let mut hops = Vec::new();
    while let Some((pn, pt, e, dep)) = parents.get(&state).cloned() {
        hops.push(Hop {
            edge: e,
            depart: dep,
            arrive: state.1.clone(),
        });
        state = (pn, pt);
    }
    hops.reverse();
    Journey::from_hops(hops)
}

/// Per-configuration state in the merged per-node frontier map:
/// the first-generated witness label (the same first-crossing-wins rule
/// as the old `or_insert` parent map), the best hop count — the
/// decrease-key key while enqueued, the settle hops once settled (equal
/// by the time the first pop happens, since the heap pops hop-minimal
/// ties first) — and whether the configuration has settled.
///
/// Keeping generation and settlement in ONE sorted map means each
/// expanded crossing resolves its target with a single binary search
/// where the split `settled`/`gen` layout needed two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Conf {
    label: u32,
    hops: u32,
    settled: bool,
}

/// One expanded settled configuration in an incremental core's repair
/// log: its settle time, how many crossings its expansion generated,
/// and `reach`, the latest of their arrivals (`time` itself when there
/// were none).
///
/// Under restricted waiting these decide whether a repair from `t0`
/// must re-expand the configuration. If its departure window closes
/// before `t0` and `reach < t0`, every crossing it can take departs and
/// arrives before `t0`. Presence before `t0` is unchanged by the batch,
/// an edge added since has no presence before `t0`, and latency is fixed
/// per edge. So re-expanding it would regenerate the same `crossings`,
/// all into targets that settled before `t0` and survive the prune.
#[derive(Debug, Clone)]
struct Expansion<T> {
    time: T,
    reach: T,
    crossings: u64,
}

/// Where [`ExactCore::expand`] reports the arrival of each crossing it
/// generates: nowhere on a fresh run (`()`, compiled away), into a
/// running maximum ([`Latest`]) when the core keeps a repair log.
trait Reach<T> {
    fn note(&mut self, arrival: &T);
}

impl<T> Reach<T> for () {
    #[inline]
    fn note(&mut self, _: &T) {}
}

/// The latest arrival noted so far.
struct Latest<T>(T);

impl<T: Ord + Clone> Reach<T> for Latest<T> {
    #[inline]
    fn note(&mut self, arrival: &T) {
        if *arrival > self.0 {
            self.0 = arrival.clone();
        }
    }
}

/// Resumable state of the exact `(node, time)` explorer. A
/// [`Workspace`] resets and reuses one for every fresh run;
/// [`crate::incremental`] keeps a logged one and prunes and replays it
/// when the underlying schedule grows at the right edge. The answers
/// (arrivals, labels, stats) live in the [`ForemostTree`] each call is
/// handed.
///
/// `conf` is the merged frontier: per node, a flat sorted map from
/// configuration time to its [`Conf`] state. Settles flip the flag in
/// place (pop times per node are non-decreasing, so fresh settles land
/// at the tail); generation inserts by binary search but lands at the
/// tail in the common case. A map is non-empty only at a node the
/// tree lists as reached, or at one with a configuration still queued
/// after an early exit, so clearing the maps costs what the run
/// touched. `moved` lists the edges whose span cursor is past its
/// first span, for the same reason.
///
/// A core built with [`ExactCore::logged`] (the incremental one) also
/// keeps, per node, an [`Expansion`] record of every settled
/// configuration it expanded, sorted by time. A fresh run's core keeps
/// none and pays nothing for it.
#[derive(Debug, Clone)]
pub(crate) struct ExactCore<T> {
    /// Per node: configuration time → generation/settlement state.
    conf: Vec<FlatMap<T, Conf>>,
    /// Per node: the repair log, `None` outside incremental repair.
    log: Option<Vec<Vec<Expansion<T>>>>,
    // Min-heap on (arrival, node, hops, label id): pops in time order,
    // so the first settle of a node is its foremost arrival. Residual
    // duplicates are deduplicated at pop time against the settled flag.
    queue: BinaryHeap<Reverse<(T, NodeId, u32, u32)>>,
    /// Per edge: the first span a later expansion can still depart in
    /// (see [`ExactCore::expand`]).
    cursor: Vec<u32>,
    /// The edges whose `cursor` is non-zero, each once.
    moved: Vec<EdgeId>,
}

impl<T: Time> ExactCore<T> {
    fn new() -> Self {
        ExactCore {
            conf: Vec::new(),
            log: None,
            queue: BinaryHeap::new(),
            cursor: Vec::new(),
            moved: Vec::new(),
        }
    }

    /// A core that keeps the repair log [`ExactCore::replay`] needs.
    pub(crate) fn logged(num_nodes: usize) -> Self {
        let mut core = ExactCore {
            log: Some(Vec::new()),
            ..ExactCore::new()
        };
        core.resize(num_nodes);
        core
    }

    /// Empties the frontiers a fresh run filled: every configuration
    /// it generated either settled, which reached its node, or is still
    /// queued after an early exit. A node beyond this core's maps was
    /// reached by a run of the other core.
    fn clear(&mut self, reached: &[NodeId]) {
        for Reverse((_, node, _, _)) in self.queue.drain() {
            self.conf[node.index()].clear();
        }
        for n in reached {
            if let Some(map) = self.conf.get_mut(n.index()) {
                map.clear();
            }
        }
    }

    /// Sizes the per-node state for `num_nodes` (growth after streamed
    /// topology changes, or the next index a workspace runs on).
    pub(crate) fn resize(&mut self, num_nodes: usize) {
        self.conf.resize_with(num_nodes, FlatMap::new);
        if let Some(log) = &mut self.log {
            log.resize_with(num_nodes, Vec::new);
        }
    }

    /// Moves every span cursor back to the first span and sizes the
    /// cursors for `num_edges`: expansion times restart at each drain
    /// and replay.
    fn rewind(&mut self, num_edges: usize) {
        for e in self.moved.drain(..) {
            self.cursor[e.index()] = 0;
        }
        self.cursor.resize(num_edges, 0);
    }

    /// Enqueues seed configurations (hop count zero).
    pub(crate) fn seed<'s>(
        &mut self,
        tree: &mut ForemostTree<T>,
        seeds: impl IntoIterator<Item = &'s (NodeId, T)>,
    ) where
        T: 's,
    {
        for (node, t) in seeds {
            let id = alloc_label(&mut tree.arena, t.clone(), None);
            self.queue.push(Reverse((t.clone(), *node, 0, id)));
        }
    }

    /// Discards every conclusion at or after `t0`: settles, generated
    /// labels, and foremost arrivals from `t0` on may all be
    /// invalidated by schedule changes at `t0`, while everything
    /// strictly earlier is untouchable (a crossing departing at or
    /// after `t0` arrives at or after it — latencies are non-negative).
    /// The arena keeps pruned labels as unreachable garbage, which
    /// costs memory proportional to the churn but keeps every surviving
    /// parent chain valid by construction.
    ///
    /// After a full drain every generated configuration has settled, so
    /// only reached nodes hold configurations or log entries, and a
    /// node keeps some exactly when its foremost arrival survives.
    pub(crate) fn prune(&mut self, tree: &mut ForemostTree<T>, t0: &T) {
        self.queue.clear();
        for n in &tree.reached {
            self.conf[n.index()].truncate_from(t0);
            if let Some(log) = &mut self.log {
                let entries = &mut log[n.index()];
                entries.truncate(entries.partition_point(|x| x.time < *t0));
            }
        }
        tree.prune(t0);
    }

    /// Re-expands the surviving configurations that a schedule change
    /// at `t0` can affect, in global settle order (time, node) — the
    /// order a fresh run would have expanded them in. Crossings
    /// arriving before `t0` find their targets already settled and are
    /// skipped; crossings into the repaired region re-enter the queue,
    /// so the subsequent [`ExactCore::drain`] reproduces a fresh run's
    /// conclusions there.
    ///
    /// A logged configuration whose window closes before `t0` and whose
    /// crossings all arrived before it is not re-expanded (see
    /// [`Expansion`]): its logged crossing count is credited to
    /// `stats.expanded` instead, so the counters equal a full sweep's.
    ///
    /// # Panics
    ///
    /// Panics if the core keeps no log (it was not built by
    /// [`ExactCore::logged`]).
    pub(crate) fn replay<I: TemporalIndex<T>>(
        &mut self,
        tree: &mut ForemostTree<T>,
        index: &I,
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
        t0: &T,
    ) {
        match policy {
            WaitingPolicy::NoWait => self.replay_inner(tree, index, &NoWaitDeparture, limits, t0),
            WaitingPolicy::Bounded(d) => {
                self.replay_inner(tree, index, &BoundedDeparture(d.clone()), limits, t0);
            }
            WaitingPolicy::Unbounded => unreachable!("unbounded waiting runs on ParetoCore"),
        }
    }

    fn replay_inner<I: TemporalIndex<T>, P: DeparturePolicy<T>>(
        &mut self,
        tree: &mut ForemostTree<T>,
        index: &I,
        policy: &P,
        limits: &SearchLimits<T>,
        t0: &T,
    ) {
        let mut log = self.log.take().expect("only a logged core replays");
        let mut stale: Vec<(T, NodeId, usize)> = Vec::new();
        for &node in &tree.reached {
            for (k, x) in log[node.index()].iter().enumerate() {
                let closed = policy
                    .latest(&x.time, &limits.horizon)
                    .is_none_or(|latest| latest < *t0);
                if closed && x.reach < *t0 {
                    tree.stats.expanded += x.crossings;
                } else {
                    stale.push((x.time.clone(), node, k));
                }
            }
        }
        // Settled configurations are unique per (node, time).
        stale.sort_unstable();
        self.rewind(index.num_edges());
        for (time, node, k) in stale {
            // Every settle leaves its configuration in `conf`, with the
            // witness label and the settle hops.
            let c = *self.conf[node.index()]
                .get(&time)
                .expect("a logged configuration has settled");
            log[node.index()][k] =
                self.expand_logged(tree, index, policy, limits, node, time, c.hops, c.label);
        }
        self.log = Some(log);
    }

    /// Marks every logged expansion as reaching `reach`, so a repair
    /// from any watermark up to `reach` re-expands all of them — the
    /// full sweep the credited counts are checked against.
    #[cfg(test)]
    pub(crate) fn invalidate_log(&mut self, reach: &T) {
        for x in self.log.iter_mut().flatten().flatten() {
            x.reach = reach.clone();
        }
    }

    /// Runs the exploration to exhaustion (or to `target`'s first,
    /// already-foremost settle).
    pub(crate) fn drain<I: TemporalIndex<T>>(
        &mut self,
        tree: &mut ForemostTree<T>,
        index: &I,
        policy: &WaitingPolicy<T>,
        limits: &SearchLimits<T>,
        target: Option<NodeId>,
    ) {
        match policy {
            WaitingPolicy::NoWait => {
                self.drain_with(tree, index, &NoWaitDeparture, limits, target);
            }
            WaitingPolicy::Bounded(d) => {
                self.drain_with(tree, index, &BoundedDeparture(d.clone()), limits, target);
            }
            WaitingPolicy::Unbounded => unreachable!("unbounded waiting runs on ParetoCore"),
        }
    }

    /// Picks the loop once per drain, so the loop a fresh run's core
    /// (which keeps no log) runs holds no logging code.
    fn drain_with<I: TemporalIndex<T>, P: DeparturePolicy<T>>(
        &mut self,
        tree: &mut ForemostTree<T>,
        index: &I,
        policy: &P,
        limits: &SearchLimits<T>,
        target: Option<NodeId>,
    ) {
        if self.log.is_some() {
            self.drain_inner::<I, P, true>(tree, index, policy, limits, target);
        } else {
            self.drain_inner::<I, P, false>(tree, index, policy, limits, target);
        }
    }

    fn drain_inner<I: TemporalIndex<T>, P: DeparturePolicy<T>, const LOGGED: bool>(
        &mut self,
        tree: &mut ForemostTree<T>,
        index: &I,
        policy: &P,
        limits: &SearchLimits<T>,
        target: Option<NodeId>,
    ) {
        let cap = hops_cap(limits);
        self.rewind(index.num_edges());
        while let Some(Reverse((time, node, hops, id))) = self.queue.pop() {
            let ni = node.index();
            // The witness label of this configuration: its
            // first-generated crossing if one exists (a zero-latency
            // cycle can generate into a seed configuration before the
            // seed pops), otherwise the label carried by the queue.
            let id = match self.conf[ni].search(&time) {
                Ok(at) => {
                    let entry = self.conf[ni].val_mut(at);
                    if entry.settled {
                        continue;
                    }
                    // The heap pops hop-minimal ties first, so the
                    // popped hops equal the best enqueued hops here.
                    entry.settled = true;
                    entry.hops = hops;
                    entry.label
                }
                // A seed configuration no crossing generated into. Pop
                // times per node are non-decreasing, so this is an
                // append in all but name.
                Err(at) => {
                    let entry = Conf {
                        label: id,
                        hops,
                        settled: true,
                    };
                    self.conf[ni].insert_at(at, time.clone(), entry);
                    id
                }
            };
            tree.stats.settled += 1;
            // The first settle is already foremost: a targeted query is
            // done here.
            if tree.settle(node, &time, id) && target == Some(node) {
                break;
            }
            if hops == cap {
                continue;
            }
            if !LOGGED {
                self.expand(tree, index, policy, limits, node, &time, hops, id, &mut ());
                continue;
            }
            let x = self.expand_logged(tree, index, policy, limits, node, time, hops, id);
            let entries = &mut self.log.as_mut().expect("a logged drain has a log")[ni];
            // Settle times per node only grow within a drain, and a
            // repair's drain settles at or after its watermark, so this
            // is an append except when a late seed settles in the past.
            entries.insert(entries.partition_point(|y| y.time < x.time), x);
        }
    }

    /// [`ExactCore::expand`] for a logged core, returning the
    /// expansion's log record.
    #[allow(clippy::too_many_arguments)] // one settled configuration, spelled out
    fn expand_logged<I: TemporalIndex<T>, P: DeparturePolicy<T>>(
        &mut self,
        tree: &mut ForemostTree<T>,
        index: &I,
        policy: &P,
        limits: &SearchLimits<T>,
        node: NodeId,
        time: T,
        hops: u32,
        id: u32,
    ) -> Expansion<T> {
        let before = tree.stats.expanded;
        let mut reach = Latest(time.clone());
        self.expand(
            tree, index, policy, limits, node, &time, hops, id, &mut reach,
        );
        Expansion {
            time,
            reach: reach.0,
            crossings: tree.stats.expanded - before,
        }
    }

    /// Expands every admissible crossing from a settled configuration —
    /// the same `(edge, depart, arrive)` triples in the same order as
    /// [`TemporalIndex::crossings`], but enumerated through the per-edge
    /// span `cursor`: expansion times within one drain/replay are
    /// non-decreasing, so the span holding the next departure is found
    /// by walking forward from the last position (amortized O(1) per
    /// call) instead of a fresh binary search per `(settle, edge)`.
    #[allow(clippy::too_many_arguments)] // one settled configuration, spelled out
    fn expand<I: TemporalIndex<T>, P: DeparturePolicy<T>, R: Reach<T>>(
        &mut self,
        tree: &mut ForemostTree<T>,
        index: &I,
        policy: &P,
        limits: &SearchLimits<T>,
        node: NodeId,
        time: &T,
        hops: u32,
        id: u32,
        reach: &mut R,
    ) {
        let Some(until) = policy.latest(time, &limits.horizon) else {
            return;
        };
        for &e in index.out_edges(node) {
            let spans = index.presence(e);
            // Expansion times only grow, so spans ending at or before
            // `time` can never serve a later call either: skip them for
            // good by advancing the edge's cursor.
            let from = self.cursor[e.index()];
            let mut i = from as usize;
            while i < spans.len() && *spans.end(i) <= *time {
                i += 1;
            }
            if i != from as usize {
                if from == 0 {
                    self.moved.push(e);
                }
                self.cursor[e.index()] = u32::try_from(i).expect("an edge has under 2^32 spans");
            }
            while i < spans.len() && *spans.start(i) <= until {
                let (start, end) = (spans.start(i), spans.end(i));
                let mut dep = if *start > *time {
                    start.clone()
                } else {
                    time.clone()
                };
                while dep < *end && dep <= until {
                    let Some(arr) = index.arrival(e, &dep) else {
                        // Latency overflow: the crossing is dropped
                        // before it counts as expanded.
                        dep = dep.succ();
                        continue;
                    };
                    tree.stats.expanded += 1;
                    reach.note(&arr);
                    let succ = index.dst(e);
                    let si = succ.index();
                    match self.conf[si].search(&arr) {
                        Ok(at) => {
                            // Already generated: the first crossing keeps
                            // the witness; re-enqueue only on a strict hop
                            // improvement into a not-yet-settled
                            // configuration (decrease-key).
                            let entry = self.conf[si].val_mut(at);
                            if !entry.settled && hops + 1 < entry.hops {
                                entry.hops = hops + 1;
                                let gen_id = entry.label;
                                self.queue.push(Reverse((arr, succ, hops + 1, gen_id)));
                            }
                        }
                        Err(at) => {
                            let new_id = alloc_label(
                                &mut tree.arena,
                                arr.clone(),
                                Some((id, e, dep.clone())),
                            );
                            let entry = Conf {
                                label: new_id,
                                hops: hops + 1,
                                settled: false,
                            };
                            self.conf[si].insert_at(at, arr.clone(), entry);
                            self.queue.push(Reverse((arr, succ, hops + 1, new_id)));
                        }
                    }
                    dep = dep.succ();
                }
                i += 1;
            }
        }
    }
}

/// A settled Pareto frontier entry: `(arrival, hops, label id)`.
type ParetoEntry<T> = (T, u32, u32);

fn dominated<T: Time>(frontier: &[ParetoEntry<T>], time: &T, hops: u32) -> bool {
    frontier.iter().any(|(a, h, _)| a <= time && *h <= hops)
}

/// Resumable state of the Pareto label-correcting explorer (unbounded
/// waiting), the counterpart of [`ExactCore`]. Pruning keeps the label
/// arena intact — labels in the repaired region become unreachable
/// garbage, which costs memory proportional to the churn but keeps
/// every surviving parent chain valid by construction.
#[derive(Debug, Clone)]
pub(crate) struct ParetoCore<T> {
    /// Settled Pareto frontier per node, sorted by arrival (settle
    /// order is time-ordered and per-node ties are dominated away). A
    /// frontier is non-empty exactly at the nodes the tree lists as
    /// reached: a node's first settle is its foremost arrival.
    settled: Vec<Vec<ParetoEntry<T>>>,
    // Min-heap on (arrival, hops, node, label id); pops in (time, hops)
    // order, and label ids make every entry unique, so the pop sequence
    // is exactly the old ordered-set iteration order.
    queue: BinaryHeap<Reverse<(T, u32, NodeId, u32)>>,
}

impl<T: Time> ParetoCore<T> {
    pub(crate) fn new() -> Self {
        ParetoCore {
            settled: Vec::new(),
            queue: BinaryHeap::new(),
        }
    }

    /// Empties the frontiers a fresh run filled (see
    /// [`ExactCore::clear`]).
    fn clear(&mut self, reached: &[NodeId]) {
        self.queue.clear();
        for n in reached {
            if let Some(frontier) = self.settled.get_mut(n.index()) {
                frontier.clear();
            }
        }
    }

    /// Sizes the per-node state for `num_nodes`.
    pub(crate) fn resize(&mut self, num_nodes: usize) {
        self.settled.resize_with(num_nodes, Vec::new);
    }

    /// Enqueues seed labels (hop count zero, no parent).
    pub(crate) fn seed<'s>(
        &mut self,
        tree: &mut ForemostTree<T>,
        seeds: impl IntoIterator<Item = &'s (NodeId, T)>,
    ) where
        T: 's,
    {
        for (node, t) in seeds {
            let id = alloc_label(&mut tree.arena, t.clone(), None);
            self.queue.push(Reverse((t.clone(), 0, *node, id)));
        }
    }

    /// Discards every conclusion at or after `t0` (see
    /// [`ExactCore::prune`] for the soundness argument).
    pub(crate) fn prune(&mut self, tree: &mut ForemostTree<T>, t0: &T) {
        self.queue.clear();
        for n in &tree.reached {
            let frontier = &mut self.settled[n.index()];
            frontier.truncate(frontier.partition_point(|(t, _, _)| t < t0));
        }
        tree.prune(t0);
    }

    /// Re-expands every surviving settled label in global settle order
    /// (time, hops, node, id). Crossings whose best arrival lands
    /// before the prune watermark are dominated by surviving frontier
    /// entries and skipped; crossings into the repaired region re-enter
    /// the queue for [`ParetoCore::drain`].
    pub(crate) fn replay<I: TemporalIndex<T>>(
        &mut self,
        tree: &mut ForemostTree<T>,
        index: &I,
        limits: &SearchLimits<T>,
    ) {
        let cap = hops_cap(limits);
        let mut survivors: Vec<(T, u32, NodeId, u32)> = Vec::new();
        for &node in &tree.reached {
            let frontier = &self.settled[node.index()];
            survivors.extend(frontier.iter().map(|(t, h, id)| (t.clone(), *h, node, *id)));
        }
        survivors.sort();
        for (time, hops, node, id) in survivors {
            if hops == cap || time > limits.horizon {
                continue;
            }
            self.expand(tree, index, limits, node, &time, hops, id);
        }
    }

    /// Runs the exploration to exhaustion (or to `target`'s first,
    /// already-foremost settle).
    pub(crate) fn drain<I: TemporalIndex<T>>(
        &mut self,
        tree: &mut ForemostTree<T>,
        index: &I,
        limits: &SearchLimits<T>,
        target: Option<NodeId>,
    ) {
        let cap = hops_cap(limits);
        while let Some(Reverse((time, hops, node, id))) = self.queue.pop() {
            let frontier = &mut self.settled[node.index()];
            if dominated(frontier, &time, hops) {
                continue;
            }
            frontier.push((time.clone(), hops, id));
            tree.stats.settled += 1;
            if tree.settle(node, &time, id) && target == Some(node) {
                break;
            }
            if hops == cap || time > limits.horizon {
                continue;
            }
            self.expand(tree, index, limits, node, &time, hops, id);
        }
    }

    #[allow(clippy::too_many_arguments)] // one settled label, spelled out
    fn expand<I: TemporalIndex<T>>(
        &mut self,
        tree: &mut ForemostTree<T>,
        index: &I,
        limits: &SearchLimits<T>,
        node: NodeId,
        time: &T,
        hops: u32,
        id: u32,
    ) {
        for &e in index.out_edges(node) {
            let succ = index.dst(e);
            // All crossings of `e` from this label cost the same hops, so
            // only the minimal-arrival departure can survive dominance —
            // one label per (label, edge). With a monotone arrival the
            // earliest departure realizes it (one binary search); an
            // opaque latency needs the full window scanned.
            let best_crossing: Option<(T, T)> = if index.arrival_is_monotone(e) {
                index
                    .next_departure(e, time)
                    .filter(|dep| dep <= &limits.horizon && dep <= index.horizon())
                    .and_then(|dep| Some((index.arrival(e, &dep)?, dep)))
            } else {
                let mut best: Option<(T, T)> = None;
                for dep in index.departures_within(e, time, &limits.horizon) {
                    let Some(arr) = index.arrival(e, &dep) else {
                        continue;
                    };
                    match &best {
                        Some((best_arr, _)) if *best_arr <= arr => {}
                        _ => best = Some((arr, dep)),
                    }
                }
                best
            };
            let Some((arr, dep)) = best_crossing else {
                continue;
            };
            if dominated(&self.settled[succ.index()], &arr, hops + 1) {
                continue;
            }
            tree.stats.expanded += 1;
            let new_id = alloc_label(&mut tree.arena, arr.clone(), Some((id, e, dep)));
            self.queue.push(Reverse((arr, hops + 1, succ, new_id)));
        }
    }
}

fn rebuild_labels<T: Time>(arena: &[Label<T>], mut id: u32) -> Journey<T> {
    let mut hops = Vec::new();
    while let Some((prev, e, dep)) = &arena[id as usize].parent {
        hops.push(Hop {
            edge: *e,
            depart: dep.clone(),
            arrive: arena[id as usize].time.clone(),
        });
        id = *prev;
    }
    hops.reverse();
    Journey::from_hops(hops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvg_model::{Latency, Presence, Tvg, TvgBuilder, TvgIndex};

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// Line v0 →a→ v1 →b→ v2 where b exists only at t = 5.
    fn line_gap() -> Tvg<u64> {
        let mut b = TvgBuilder::new();
        let v = b.nodes(3);
        b.edge(v[0], v[1], 'a', Presence::At(1u64), Latency::unit())
            .expect("valid");
        b.edge(v[1], v[2], 'b', Presence::At(5u64), Latency::unit())
            .expect("valid");
        b.build().expect("valid")
    }

    fn limits() -> SearchLimits<u64> {
        SearchLimits::new(20, 10)
    }

    #[test]
    fn tree_separates_policies() {
        let g = line_gap();
        let idx = TvgIndex::compile(&g, 20);
        let no = foremost_tree(&idx, n(0), &1, &WaitingPolicy::NoWait, &limits());
        assert_eq!(no.arrival(n(0)), Some(&1));
        assert_eq!(no.arrival(n(1)), Some(&2));
        assert_eq!(no.arrival(n(2)), None);
        assert_eq!(no.num_reached(), 2);

        let wait = foremost_tree(&idx, n(0), &1, &WaitingPolicy::Unbounded, &limits());
        assert_eq!(wait.arrival(n(2)), Some(&6));
        let j = wait.journey_to(n(2)).expect("reachable");
        assert_eq!(j.num_hops(), 2);
        assert_eq!(j.validate(&g, n(0), &1, &WaitingPolicy::Unbounded), Ok(()));
        assert_eq!(
            wait.reached_nodes().collect::<Vec<_>>(),
            vec![n(0), n(1), n(2)]
        );

        let b3 = foremost_tree(&idx, n(0), &1, &WaitingPolicy::Bounded(3), &limits());
        assert_eq!(b3.arrival(n(2)), Some(&6));
        let b2 = foremost_tree(&idx, n(0), &1, &WaitingPolicy::Bounded(2), &limits());
        assert_eq!(b2.arrival(n(2)), None);
    }

    #[test]
    fn seed_nodes_reach_themselves_by_empty_journeys() {
        let g = line_gap();
        let idx = TvgIndex::compile(&g, 20);
        let tree = foremost_tree(&idx, n(1), &3, &WaitingPolicy::NoWait, &limits());
        assert_eq!(tree.arrival(n(1)), Some(&3));
        assert!(tree.journey_to(n(1)).expect("seed").is_empty());
    }

    #[test]
    fn multi_seed_takes_the_earliest() {
        let g = line_gap();
        let idx = TvgIndex::compile(&g, 20);
        // Seeding v0 late misses edge a; an extra seed at v1 connects.
        let seeds = [(n(0), 4u64), (n(1), 4u64)];
        let tree = foremost_tree_multi(&idx, &seeds, &WaitingPolicy::Unbounded, &limits());
        assert_eq!(tree.arrival(n(2)), Some(&6));
        assert_eq!(tree.arrival(n(0)), Some(&4));
        assert_eq!(tree.arrival(n(1)), Some(&4));
    }

    #[test]
    fn hop_and_horizon_limits_bind() {
        let g = line_gap();
        let idx = TvgIndex::compile(&g, 20);
        let one_hop = SearchLimits::new(20, 1);
        let tree = foremost_tree(&idx, n(0), &1, &WaitingPolicy::Unbounded, &one_hop);
        assert_eq!(tree.arrival(n(2)), None);
        let tight = SearchLimits::new(4, 10);
        let tree = foremost_tree(&idx, n(0), &1, &WaitingPolicy::Unbounded, &tight);
        assert_eq!(tree.arrival(n(2)), None);
    }

    #[test]
    fn pareto_hop_pruning_is_exact_under_hop_limits() {
        // Two routes to v2: 1 hop arriving late (t=9→10) vs 2 hops
        // arriving early (t=3). With max_hops = 1 only the late route is
        // admissible; naive arrival-only dominance would prune it.
        let mut b = TvgBuilder::new();
        let v = b.nodes(3);
        b.edge(v[0], v[2], 'd', Presence::At(9u64), Latency::unit())
            .expect("valid");
        b.edge(v[0], v[1], 'a', Presence::At(1u64), Latency::unit())
            .expect("valid");
        b.edge(v[1], v[2], 'b', Presence::At(2u64), Latency::unit())
            .expect("valid");
        let g = b.build().expect("valid");
        let idx = TvgIndex::compile(&g, 20);
        let full = foremost_tree(&idx, n(0), &0, &WaitingPolicy::Unbounded, &limits());
        assert_eq!(full.arrival(n(2)), Some(&3));
        let one_hop = SearchLimits::new(20, 1);
        let tree = foremost_tree(&idx, n(0), &0, &WaitingPolicy::Unbounded, &one_hop);
        assert_eq!(tree.arrival(n(2)), Some(&10));
        assert_eq!(tree.journey_to(n(2)).expect("direct").num_hops(), 1);
    }

    #[test]
    fn sentinel_unbounded_horizon_does_not_wrap() {
        // A "search forever" horizon at the top of the u64 domain must
        // compile to the clamped window, not wrap to emptiness or panic.
        let g = line_gap();
        let idx = TvgIndex::compile(&g, u64::MAX);
        let huge = SearchLimits::new(u64::MAX, 10);
        let tree = foremost_tree(&idx, n(0), &1, &WaitingPolicy::Unbounded, &huge);
        assert_eq!(tree.arrival(n(2)), Some(&6));
        let no = foremost_tree(&idx, n(0), &1, &WaitingPolicy::NoWait, &huge);
        assert_eq!(no.arrival(n(2)), None);
    }

    #[test]
    fn pareto_scans_the_window_for_non_monotone_latencies() {
        // Departing later is *faster* here: ζ(t) = 20 - 2t on a window.
        // The monotone fast path would take the earliest departure; the
        // explorer must scan and find the best arrival.
        let mut b = TvgBuilder::new();
        let v = b.nodes(2);
        b.edge(
            v[0],
            v[1],
            'a',
            Presence::Window {
                from: 0u64,
                until: 9,
            },
            Latency::from_fn(|t: &u64| 20u64.saturating_sub(2 * t)),
        )
        .expect("valid");
        let g = b.build().expect("valid");
        let idx = TvgIndex::compile(&g, 30);
        let tree = foremost_tree(
            &idx,
            n(0),
            &0,
            &WaitingPolicy::Unbounded,
            &SearchLimits::new(30, 3),
        );
        // depart 9 → arrive 9 + 2 = 11; every earlier departure is later.
        assert_eq!(tree.arrival(n(1)), Some(&11));
        let j = tree.journey_to(n(1)).expect("reachable");
        assert_eq!(j.departure(), Some(&9));
    }

    #[test]
    fn stats_count_one_run_per_tree() {
        let g = line_gap();
        let idx = TvgIndex::compile(&g, 20);
        let wait = foremost_tree(&idx, n(0), &0, &WaitingPolicy::Unbounded, &limits());
        let no = foremost_tree(&idx, n(0), &0, &WaitingPolicy::NoWait, &limits());
        for tree in [&wait, &no] {
            assert_eq!(tree.stats().runs, 1);
            assert!(tree.stats().settled >= 1, "the seed itself settles");
        }
        // Stats are values: summing them is the batch aggregation.
        let total: EngineStats = [wait.stats(), no.stats()].into_iter().sum();
        assert_eq!(total.runs, 2);
        assert_eq!(total.settled, wait.stats().settled + no.stats().settled);
    }

    #[test]
    fn zero_latency_cycles_terminate() {
        // A zero-latency self-loop plus a zero-latency 2-cycle: the
        // configuration space at each instant is finite and the explorers
        // must settle it without spinning.
        let mut b = TvgBuilder::new();
        let v = b.nodes(2);
        b.edge(v[0], v[0], 's', Presence::Always, Latency::Const(0u64))
            .expect("valid");
        b.edge(v[0], v[1], 'a', Presence::Always, Latency::Const(0u64))
            .expect("valid");
        b.edge(v[1], v[0], 'b', Presence::Always, Latency::Const(0u64))
            .expect("valid");
        let g = b.build().expect("valid");
        let idx = TvgIndex::compile(&g, 5);
        for policy in [
            WaitingPolicy::NoWait,
            WaitingPolicy::Bounded(1),
            WaitingPolicy::Unbounded,
        ] {
            let tree = foremost_tree(&idx, n(0), &2, &policy, &SearchLimits::new(5, 4));
            assert_eq!(tree.arrival(n(1)), Some(&2), "{policy}");
        }
    }

    #[test]
    fn flat_map_inserts_and_truncates() {
        let mut m: FlatMap<u64, u32> = FlatMap::new();
        for k in [4u64, 1, 3] {
            let at = m.search(&k).expect_err("absent");
            m.insert_at(at, k, u32::try_from(k).expect("small"));
        }
        assert_eq!(m.get(&3), Some(&3));
        assert_eq!(m.get(&2), None);
        assert_eq!(m.get(&4), Some(&4));
        assert_eq!(m.search(&2), Err(1));
        m.truncate_from(&3);
        assert_eq!(m.keys, vec![1]);
    }
}
