//! The pre-overhaul generic single-source explorer, preserved verbatim
//! (modulo renames) as a differential oracle.
//!
//! PR 7 rebuilt the production explorer cores in `tvg-journeys` for
//! cache locality: monomorphized waiting policies, a bump arena of
//! `u32`-indexed labels, flat sorted frontier vectors, and binary-heap
//! queues. The overhaul is a pure representation change — arrivals,
//! witness journeys, and [`EngineStats`] must be *bit-identical* to
//! what the old `BTreeMap`/`BTreeSet` explorer produced. This module
//! keeps that old explorer alive so the equivalence stays executable:
//! `ref_foremost_tree` is the exploration loop exactly as it stood
//! before the overhaul, pointer-chasing data structures and all.
//!
//! Nothing here is reachable from production code; it exists only for
//! the differential properties in `tests/engine_overhaul_props.rs`.

use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use tvg_journeys::{EngineStats, Hop, Journey, SearchLimits, WaitingPolicy};
use tvg_model::{EdgeId, NodeId, TemporalIndex, Time};

/// The all-destinations output of one reference engine run — the
/// oracle's counterpart of the production `ForemostTree`.
#[derive(Debug, Clone)]
pub struct RefTree<T> {
    arrival: Vec<Option<T>>,
    repr: RefRepr<T>,
    stats: EngineStats,
}

#[derive(Debug, Clone)]
enum RefRepr<T> {
    Exact(RefParents<T>),
    Pareto {
        arena: Vec<RefLabel<T>>,
        best: Vec<Option<usize>>,
    },
}

impl<T: Time> RefTree<T> {
    /// The foremost arrival at `n`, `None` if unreachable.
    #[must_use]
    pub fn arrival(&self, n: NodeId) -> Option<&T> {
        self.arrival[n.index()].as_ref()
    }

    /// A foremost witness journey to `n`, rebuilt on demand.
    #[must_use]
    pub fn journey_to(&self, n: NodeId) -> Option<Journey<T>> {
        let arrival = self.arrival[n.index()].as_ref()?;
        Some(match &self.repr {
            RefRepr::Exact(parents) => parents.rebuild((n, arrival.clone())),
            RefRepr::Pareto { arena, best } => rebuild_labels(
                arena,
                best[n.index()].expect("reached nodes have a best label"),
            ),
        })
    }

    /// Number of reached nodes (seeds included).
    #[must_use]
    pub fn num_reached(&self) -> usize {
        self.arrival.iter().filter(|r| r.is_some()).count()
    }

    /// Work counters of the run.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }
}

/// One single-source reference run — the old explorer's `run` entry
/// point, exposed with explicit multi-seed and target parameters so the
/// differential tests can exercise both the all-destinations and the
/// early-exit paths.
#[must_use]
pub fn ref_foremost_tree<T: Time, I: TemporalIndex<T>>(
    index: &I,
    seeds: &[(NodeId, T)],
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
    target: Option<NodeId>,
) -> RefTree<T> {
    match policy {
        WaitingPolicy::Unbounded => pareto_explore(index, seeds, limits, target),
        _ => exact_explore(index, seeds, policy, limits, target),
    }
}

fn one_run() -> EngineStats {
    EngineStats {
        runs: 1,
        ..EngineStats::default()
    }
}

#[derive(Debug, Clone)]
struct RefParents<T> {
    per_node: Vec<BTreeMap<T, (NodeId, T, EdgeId, T)>>,
}

impl<T: Time> RefParents<T> {
    fn new(num_nodes: usize) -> Self {
        RefParents {
            per_node: vec![BTreeMap::new(); num_nodes],
        }
    }

    fn rebuild(&self, mut state: (NodeId, T)) -> Journey<T> {
        let mut hops = Vec::new();
        while let Some((pn, pt, e, dep)) = self.per_node[state.0.index()].get(&state.1).cloned() {
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
}

/// The old exact `(node, time)` explorer: `BTreeMap` settles and parent
/// pointers, a branchy per-label policy dispatch, duplicate pushes
/// deduplicated only at pop time.
fn exact_explore<T: Time, I: TemporalIndex<T>>(
    index: &I,
    seeds: &[(NodeId, T)],
    policy: &WaitingPolicy<T>,
    limits: &SearchLimits<T>,
    target: Option<NodeId>,
) -> RefTree<T> {
    let num_nodes = index.num_nodes();
    let mut stats = one_run();
    let mut arrival: Vec<Option<T>> = vec![None; num_nodes];
    let mut settled: Vec<BTreeMap<T, usize>> = vec![BTreeMap::new(); num_nodes];
    let mut parents = RefParents::new(num_nodes);
    let mut queue: BinaryHeap<Reverse<(T, NodeId, usize)>> = BinaryHeap::new();
    for (node, t) in seeds {
        queue.push(Reverse((t.clone(), *node, 0)));
    }
    while let Some(Reverse((time, node, hops))) = queue.pop() {
        match settled[node.index()].entry(time.clone()) {
            Entry::Occupied(_) => continue,
            Entry::Vacant(slot) => slot.insert(hops),
        };
        stats.settled += 1;
        if arrival[node.index()].is_none() {
            arrival[node.index()] = Some(time.clone());
            if target == Some(node) {
                break;
            }
        }
        if hops == limits.max_hops {
            continue;
        }
        let Some(latest) = policy.latest_departure(&time, &limits.horizon) else {
            continue;
        };
        for (e, dep, arr) in index.crossings(node, &time, &latest) {
            stats.expanded += 1;
            let succ = index.dst(e);
            if !settled[succ.index()].contains_key(&arr) {
                parents.per_node[succ.index()]
                    .entry(arr.clone())
                    .or_insert((node, time.clone(), e, dep));
                queue.push(Reverse((arr, succ, hops + 1)));
            }
        }
    }
    RefTree {
        arrival,
        repr: RefRepr::Exact(parents),
        stats,
    }
}

#[derive(Debug, Clone)]
struct RefLabel<T> {
    time: T,
    parent: Option<(usize, EdgeId, T)>,
}

fn dominated<T: Time>(frontier: &[(T, usize, usize)], time: &T, hops: usize) -> bool {
    frontier.iter().any(|(a, h, _)| a <= time && *h <= hops)
}

/// The old Pareto label-correcting explorer for unbounded waiting:
/// `BTreeSet` queue, `usize` label ids, per-node frontier vectors.
fn pareto_explore<T: Time, I: TemporalIndex<T>>(
    index: &I,
    seeds: &[(NodeId, T)],
    limits: &SearchLimits<T>,
    target: Option<NodeId>,
) -> RefTree<T> {
    let num_nodes = index.num_nodes();
    let mut stats = one_run();
    let mut arrival: Vec<Option<T>> = vec![None; num_nodes];
    let mut best: Vec<Option<usize>> = vec![None; num_nodes];
    let mut arena: Vec<RefLabel<T>> = Vec::new();
    let mut settled: Vec<Vec<(T, usize, usize)>> = vec![Vec::new(); num_nodes];
    let mut queue: BTreeSet<(T, usize, NodeId, usize)> = BTreeSet::new();
    for (node, t) in seeds {
        arena.push(RefLabel {
            time: t.clone(),
            parent: None,
        });
        queue.insert((t.clone(), 0, *node, arena.len() - 1));
    }
    while let Some((time, hops, node, id)) = queue.pop_first() {
        if dominated(&settled[node.index()], &time, hops) {
            continue;
        }
        settled[node.index()].push((time.clone(), hops, id));
        stats.settled += 1;
        if arrival[node.index()].is_none() {
            arrival[node.index()] = Some(time.clone());
            best[node.index()] = Some(id);
            if target == Some(node) {
                break;
            }
        }
        if hops == limits.max_hops || time > limits.horizon {
            continue;
        }
        for &e in index.out_edges(node) {
            let succ = index.dst(e);
            let best_crossing: Option<(T, T)> = if index.arrival_is_monotone(e) {
                index
                    .departures_within(e, &time, &limits.horizon)
                    .next()
                    .and_then(|dep| Some((index.arrival(e, &dep)?, dep)))
            } else {
                let mut found: Option<(T, T)> = None;
                for dep in index.departures_within(e, &time, &limits.horizon) {
                    let Some(arr) = index.arrival(e, &dep) else {
                        continue;
                    };
                    match &found {
                        Some((best_arr, _)) if *best_arr <= arr => {}
                        _ => found = Some((arr, dep)),
                    }
                }
                found
            };
            let Some((arr, dep)) = best_crossing else {
                continue;
            };
            if dominated(&settled[succ.index()], &arr, hops + 1) {
                continue;
            }
            stats.expanded += 1;
            arena.push(RefLabel {
                time: arr.clone(),
                parent: Some((id, e, dep)),
            });
            queue.insert((arr, hops + 1, succ, arena.len() - 1));
        }
    }
    RefTree {
        arrival,
        repr: RefRepr::Pareto { arena, best },
        stats,
    }
}

fn rebuild_labels<T: Time>(arena: &[RefLabel<T>], mut id: usize) -> Journey<T> {
    let mut hops = Vec::new();
    while let Some((prev, e, dep)) = &arena[id].parent {
        hops.push(Hop {
            edge: *e,
            depart: dep.clone(),
            arrive: arena[id].time.clone(),
        });
        id = *prev;
    }
    hops.reverse();
    Journey::from_hops(hops)
}
