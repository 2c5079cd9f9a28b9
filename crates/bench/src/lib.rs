//! Experiment harness: regenerates every table and figure of the
//! reproduction (see `EXPERIMENTS.md` at the workspace root), and times
//! the code paths behind them.
//!
//! Each `eN_*` function in [`experiments`] computes one experiment and
//! returns a [`Table`] ready for printing; the `experiments` binary runs
//! them all. Each [`registry`] entry measures one experiment's hot paths
//! as named medians, and the `bench_medians` binary gates them against
//! checked-in baselines ([`gate`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod registry;
pub mod table;

pub use table::Table;

/// Renders an optional arrival instant for the canonical dump binaries
/// (`-` means unreachable). Shared so the two determinism-gate dumps
/// can never drift apart on the sentinel.
#[must_use]
pub fn fmt_arrival(a: Option<&u64>) -> String {
    a.map_or_else(|| "-".to_string(), u64::to_string)
}
