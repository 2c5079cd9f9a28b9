//! The paper's waiting monotonicity, checked on any index form.
//!
//! Casteigts et al. (arXiv:1205.1975) order the waiting policies by
//! what they admit: a journey that waits at most `d` instants at each
//! node also waits at most `d + 1`, and a journey that never waits
//! waits at most any bound. Waiting therefore only ever *adds*
//! journeys, so from any source:
//!
//! * the nodes reached under `nowait` ⊆ under `wait[1]` ⊆ under
//!   `wait[2]` ⊆ under unbounded `wait`;
//! * the foremost arrival at every destination never increases along
//!   that chain.
//!
//! [`assert_waiting_only_adds_journeys`] checks both on anything that
//! implements [`TemporalIndex`], so one property covers the compiled
//! index, the live index a serve epoch holds, and an opened `.tvgi`.

use tvg_journeys::{foremost_tree, ForemostTree, SearchLimits, WaitingPolicy};
use tvg_model::{NodeId, TemporalIndex};

/// The policy chain of the paper, weakest first.
pub const POLICY_CHAIN: [WaitingPolicy<u64>; 4] = [
    WaitingPolicy::NoWait,
    WaitingPolicy::Bounded(1),
    WaitingPolicy::Bounded(2),
    WaitingPolicy::Unbounded,
];

/// Asserts, from every source of `index` at `start`, that each policy
/// of [`POLICY_CHAIN`] reaches every node its predecessor reaches, no
/// later than the predecessor does.
///
/// # Panics
///
/// Panics (with `label`, the source, the destination and the policy
/// pair in the message) on the first node a weaker policy reaches that
/// a stronger one misses or reaches later.
pub fn assert_waiting_only_adds_journeys<I: TemporalIndex<u64>>(
    index: &I,
    start: u64,
    limits: &SearchLimits<u64>,
    label: &str,
) {
    for src in (0..index.num_nodes()).map(NodeId::from_index) {
        let trees: Vec<ForemostTree<u64>> = POLICY_CHAIN
            .iter()
            .map(|policy| foremost_tree(index, src, &start, policy, limits))
            .collect();
        for (i, pair) in trees.windows(2).enumerate() {
            let (weaker, stronger) = (&pair[0], &pair[1]);
            for dst in (0..index.num_nodes()).map(NodeId::from_index) {
                let Some(before) = weaker.arrival(dst) else {
                    continue;
                };
                let after = stronger.arrival(dst);
                assert!(
                    after.is_some_and(|a| a <= before),
                    "{label}: from {src} to {dst}, {} arrives at {before} but {} at {after:?}",
                    POLICY_CHAIN[i],
                    POLICY_CHAIN[i + 1],
                );
            }
        }
    }
}
