//! Unicast routing over contact traces: journey-based path selection
//! under each waiting policy.
//!
//! Where `broadcast` floods, this module *routes*: it asks for the
//! foremost journey from a source to a destination over the trace-TVG and
//! reports how the waiting policy changes feasibility and arrival time —
//! the unicast face of experiment E5.

use crate::EvolvingTrace;
use tvg_journeys::{Batch, BatchRunner, SearchLimits, WaitingPolicy};
use tvg_model::{NodeId, TvgIndex};

/// Outcome of routing one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteReport {
    /// Whether a feasible journey exists.
    pub delivered: bool,
    /// Arrival step of the foremost journey, if delivered.
    pub arrival: Option<u64>,
    /// Number of hops of the foremost journey, if delivered.
    pub hops: Option<usize>,
}

/// Routes from `src` to `dst` over `trace` under `policy`, starting at
/// step `start`: the trace-TVG is compiled once and queried with a
/// single-source engine run.
///
/// # Panics
///
/// Panics if `src` or `dst` is out of range for the trace.
#[must_use]
pub fn route(
    trace: &EvolvingTrace,
    src: usize,
    dst: usize,
    start: u64,
    policy: &WaitingPolicy<u64>,
) -> RouteReport {
    assert!(
        src < trace.num_nodes() && dst < trace.num_nodes(),
        "endpoint out of range"
    );
    if src == dst {
        return RouteReport {
            delivered: true,
            arrival: Some(start),
            hops: Some(0),
        };
    }
    let g = trace.to_tvg();
    let horizon = trace.len() as u64;
    let index = TvgIndex::compile(&g, horizon);
    let limits = SearchLimits::new(horizon, trace.len() + 1);
    // Targeted per-pair query through the batch runtime (a singleton
    // batch runs inline): the engine early-exits at dst's first
    // (already foremost) settle.
    let queries = [(NodeId::from_index(src), NodeId::from_index(dst), start)];
    let outcome = BatchRunner::new(&index, Batch::auto()).run_pairs(&queries, policy, &limits);
    match outcome.into_journeys().pop().flatten() {
        Some(j) => RouteReport {
            delivered: true,
            arrival: j.arrival().copied().or(Some(start)),
            hops: Some(j.num_hops()),
        },
        None => RouteReport {
            delivered: false,
            arrival: None,
            hops: None,
        },
    }
}

/// Fraction of ordered `(src, dst)` pairs deliverable under `policy`:
/// one compiled index, `n` single-source engine runs fanned out over the
/// batch runtime — not `n²` pairwise searches. Bit-identical at every
/// thread count.
#[must_use]
pub fn delivery_ratio(trace: &EvolvingTrace, start: u64, policy: &WaitingPolicy<u64>) -> f64 {
    let n = trace.num_nodes();
    if n < 2 {
        return 1.0;
    }
    let g = trace.to_tvg();
    let horizon = trace.len() as u64;
    let index = TvgIndex::compile(&g, horizon);
    let limits = SearchLimits::new(horizon, trace.len() + 1);
    let sources: Vec<NodeId> = g.nodes().collect();
    // Worker-side reduction: each tree collapses to its reached-count
    // immediately (only counts survive the batch, never n trees).
    let (counts, _stats) = BatchRunner::new(&index, Batch::auto()).map_sources(
        &sources,
        &start,
        policy,
        &limits,
        // Reached nodes include the source itself (its seed);
        // ordered pairs exclude it.
        |_, tree| tree.num_reached() - 1,
    );
    let delivered: usize = counts.into_iter().sum();
    delivered as f64 / (n * (n - 1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markovian::{edge_markovian_trace, EdgeMarkovianParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn gap_trace() -> EvolvingTrace {
        EvolvingTrace::new(
            3,
            vec![
                BTreeSet::from([(0, 1)]),
                BTreeSet::new(),
                BTreeSet::from([(1, 2)]),
            ],
        )
    }

    #[test]
    fn route_reports_details() {
        let r = route(&gap_trace(), 0, 2, 0, &WaitingPolicy::Unbounded);
        assert!(r.delivered);
        assert_eq!(r.arrival, Some(3));
        assert_eq!(r.hops, Some(2));
        let r2 = route(&gap_trace(), 0, 2, 0, &WaitingPolicy::NoWait);
        assert!(!r2.delivered);
        assert_eq!(r2.arrival, None);
    }

    #[test]
    fn waiting_never_hurts_delivery() {
        for seed in 0..5u64 {
            let params = EdgeMarkovianParams {
                num_nodes: 7,
                p_birth: 0.1,
                p_death: 0.45,
                steps: 25,
            };
            let trace = edge_markovian_trace(&mut StdRng::seed_from_u64(seed), &params);
            let nw = delivery_ratio(&trace, 0, &WaitingPolicy::NoWait);
            let b2 = delivery_ratio(&trace, 0, &WaitingPolicy::Bounded(2));
            let un = delivery_ratio(&trace, 0, &WaitingPolicy::Unbounded);
            assert!(nw <= b2 + 1e-12, "seed {seed}");
            assert!(b2 <= un + 1e-12, "seed {seed}");
        }
    }

    #[test]
    fn single_node_trivial() {
        let trace = EvolvingTrace::new(1, vec![BTreeSet::new()]);
        assert_eq!(delivery_ratio(&trace, 0, &WaitingPolicy::NoWait), 1.0);
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn endpoints_validated() {
        let _ = route(&gap_trace(), 0, 9, 0, &WaitingPolicy::NoWait);
    }
}
