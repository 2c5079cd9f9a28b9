//! The scenario spec format: a small line-oriented text language that
//! names a workload completely — generator, waiting policy, query plan,
//! thread policy — so that running it twice (on any machine, at any
//! thread count) produces byte-identical reports.
//!
//! ```text
//! # One block per scenario; '#' starts a comment.
//! scenario ring-matrix
//! generator ring_bus n=8 period=8
//! policy wait[3]
//! plan matrix horizon=64 max_hops=16
//! threads auto
//! ```
//!
//! Directives may appear in any order inside a block; `generator`,
//! `policy`, and `plan` are required, `threads` defaults to `auto`, and
//! `seed <n>` is shorthand for the generator's `seed=` parameter. A file
//! may hold several blocks; duplicate scenario names are rejected.
//!
//! A block may also hold `sweep` directives, each naming a generator
//! parameter (or `policy`) and the values to sweep it over:
//!
//! ```text
//! scenario ring-sweep
//! generator ring_bus n=8 period=8
//! sweep n 6 10
//! sweep policy nowait wait
//! plan matrix horizon=64
//! ```
//!
//! Sweeps expand at parse time into the cross product of their values —
//! one concrete scenario per combination, named `<base>-<value>…` (values
//! sanitized to `[a-z0-9]`, e.g. `wait[2]` → `wait2`) — so a sweep spec
//! is exactly a multi-block spec: every row validates, runs, reports,
//! and goldens like a hand-written scenario. `sweep policy` makes the
//! `policy` directive optional (and overrides it if present).
//!
//! Parsing is *total validation*: every generator and plan name, every
//! parameter name, every value type, and every cross-field constraint
//! (e.g. a plan source within the generated node range) is checked at
//! parse time with a typed [`SpecError`], so `tvg-cli check` catches a
//! broken spec without running anything. [`Scenario`]'s `Display` is the
//! canonical spec text and round-trips: `parse(display(s)) == s`.

use crate::registry::GeneratorSpec;
use std::collections::BTreeMap;
use std::fmt;
use tvg_journeys::WaitingPolicy;

/// A typed spec failure: what went wrong, where, and what was expected.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec text holds no scenario block at all.
    Empty,
    /// A directive appeared before any `scenario` line.
    StrayDirective {
        /// 1-based line number of the stray directive.
        line: usize,
    },
    /// A line whose first word is not a known directive.
    UnknownDirective {
        /// 1-based line number.
        line: usize,
        /// The offending first word.
        directive: String,
    },
    /// A directive missing its argument (e.g. bare `scenario`).
    MissingArgument {
        /// 1-based line number.
        line: usize,
        /// The directive missing its argument.
        directive: String,
    },
    /// A single-argument directive given more than one argument
    /// (e.g. `policy wait 2` instead of `policy wait[2]`).
    SurplusArgument {
        /// 1-based line number.
        line: usize,
        /// The directive with too many arguments.
        directive: String,
    },
    /// A scenario name that is empty or uses characters outside
    /// `[a-z0-9_-]`.
    BadScenarioName {
        /// The rejected name.
        name: String,
    },
    /// Two scenario blocks share a name.
    DuplicateScenario {
        /// The repeated name.
        name: String,
    },
    /// A directive appeared twice in one block.
    DuplicateDirective {
        /// The scenario being parsed.
        scenario: String,
        /// The repeated directive.
        directive: String,
    },
    /// A required directive never appeared in a block.
    MissingDirective {
        /// The scenario being parsed.
        scenario: String,
        /// The absent directive (`generator`, `policy`, or `plan`).
        directive: &'static str,
    },
    /// A `key=value` argument without the `=`.
    MalformedParam {
        /// The scenario being parsed.
        scenario: String,
        /// The raw token.
        token: String,
    },
    /// The same parameter given twice (including `seed` both as a
    /// directive and as a generator parameter).
    DuplicateParam {
        /// The scenario being parsed.
        scenario: String,
        /// The repeated parameter name.
        param: String,
    },
    /// The `generator` directive names no known generator.
    UnknownGenerator {
        /// The scenario being parsed.
        scenario: String,
        /// The unknown generator name.
        name: String,
    },
    /// The `plan` directive names no known plan.
    UnknownPlan {
        /// The scenario being parsed.
        scenario: String,
        /// The unknown plan name.
        name: String,
    },
    /// A parameter not accepted by the generator/plan it was given to.
    UnknownParam {
        /// The scenario being parsed.
        scenario: String,
        /// The generator or plan the parameter was given to.
        context: String,
        /// The rejected parameter name.
        param: String,
    },
    /// A parameter the generator/plan requires but did not receive.
    MissingParam {
        /// The scenario being parsed.
        scenario: String,
        /// The generator or plan missing the parameter.
        context: String,
        /// The absent parameter name.
        param: &'static str,
    },
    /// A parameter value of the wrong type.
    BadParamType {
        /// The scenario being parsed.
        scenario: String,
        /// The parameter name.
        param: String,
        /// The expected type (`u64`, `usize`, `f64`, `bool`).
        expected: &'static str,
        /// The raw value text.
        got: String,
    },
    /// A well-typed parameter value outside its admissible range.
    BadParamValue {
        /// The scenario being parsed.
        scenario: String,
        /// The parameter name.
        param: String,
        /// Why the value is rejected.
        reason: String,
    },
    /// A `policy` directive that is not `nowait`, `wait`, or `wait[d]`.
    BadPolicy {
        /// The scenario being parsed.
        scenario: String,
        /// The raw policy text.
        text: String,
    },
    /// A `threads` directive that is not `auto` or a positive integer.
    BadThreads {
        /// The scenario being parsed.
        scenario: String,
        /// The raw threads text.
        text: String,
    },
    /// A plan source node outside the generated graph.
    SourceOutOfRange {
        /// The scenario being parsed.
        scenario: String,
        /// The out-of-range source index.
        src: usize,
        /// The generator's node count.
        nodes: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(f, "spec holds no scenario block"),
            SpecError::StrayDirective { line } => {
                write!(f, "line {line}: directive before any `scenario` line")
            }
            SpecError::UnknownDirective { line, directive } => {
                write!(f, "line {line}: unknown directive {directive:?}")
            }
            SpecError::MissingArgument { line, directive } => {
                write!(f, "line {line}: `{directive}` needs an argument")
            }
            SpecError::SurplusArgument { line, directive } => {
                write!(f, "line {line}: `{directive}` takes exactly one argument")
            }
            SpecError::BadScenarioName { name } => {
                write!(f, "bad scenario name {name:?} (use [a-z0-9_-]+)")
            }
            SpecError::DuplicateScenario { name } => {
                write!(f, "duplicate scenario name {name:?}")
            }
            SpecError::DuplicateDirective {
                scenario,
                directive,
            } => write!(
                f,
                "scenario {scenario:?}: duplicate `{directive}` directive"
            ),
            SpecError::MissingDirective {
                scenario,
                directive,
            } => write!(f, "scenario {scenario:?}: missing `{directive}` directive"),
            SpecError::MalformedParam { scenario, token } => {
                write!(
                    f,
                    "scenario {scenario:?}: expected key=value, got {token:?}"
                )
            }
            SpecError::DuplicateParam { scenario, param } => {
                write!(f, "scenario {scenario:?}: parameter {param:?} given twice")
            }
            SpecError::UnknownGenerator { scenario, name } => {
                write!(f, "scenario {scenario:?}: unknown generator {name:?}")
            }
            SpecError::UnknownPlan { scenario, name } => {
                write!(f, "scenario {scenario:?}: unknown plan {name:?}")
            }
            SpecError::UnknownParam {
                scenario,
                context,
                param,
            } => write!(
                f,
                "scenario {scenario:?}: {context} takes no parameter {param:?}"
            ),
            SpecError::MissingParam {
                scenario,
                context,
                param,
            } => write!(
                f,
                "scenario {scenario:?}: {context} requires parameter {param:?}"
            ),
            SpecError::BadParamType {
                scenario,
                param,
                expected,
                got,
            } => write!(
                f,
                "scenario {scenario:?}: parameter {param:?} expects {expected}, got {got:?}"
            ),
            SpecError::BadParamValue {
                scenario,
                param,
                reason,
            } => write!(
                f,
                "scenario {scenario:?}: parameter {param:?} out of range: {reason}"
            ),
            SpecError::BadPolicy { scenario, text } => write!(
                f,
                "scenario {scenario:?}: bad policy {text:?} (nowait | wait | wait[d])"
            ),
            SpecError::BadThreads { scenario, text } => write!(
                f,
                "scenario {scenario:?}: bad threads {text:?} (auto | positive integer)"
            ),
            SpecError::SourceOutOfRange {
                scenario,
                src,
                nodes,
            } => write!(
                f,
                "scenario {scenario:?}: source {src} out of range (graph has {nodes} nodes)"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// Thread policy of a scenario: `auto` follows `TVG_BATCH_THREADS` /
/// machine parallelism at run time; a fixed count pins it. Either way
/// the report bytes are identical — the batch runtime is thread-count
/// invariant — so goldens never depend on this choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// `Batch::auto()` at run time.
    Auto,
    /// Exactly this many worker threads.
    Fixed(usize),
}

impl fmt::Display for Threads {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Threads::Auto => write!(f, "auto"),
            Threads::Fixed(n) => write!(f, "{n}"),
        }
    }
}

/// The query plan a scenario executes over its generated TVG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// One all-destinations foremost run from `src`.
    SingleSource {
        /// Source node.
        src: usize,
        /// Journey start instant.
        start: u64,
        /// Latest admissible departure.
        horizon: u64,
        /// Hop bound.
        max_hops: usize,
    },
    /// All-pairs reachability: one engine run per source, batched.
    Matrix {
        /// Journey start instant.
        start: u64,
        /// Latest admissible departure.
        horizon: u64,
        /// Hop bound.
        max_hops: usize,
    },
    /// A seeded sample of the reachability matrix: `sources` distinct
    /// source nodes drawn deterministically from the node range, one
    /// all-destinations foremost run each. The scale tier's plan —
    /// matrix-shaped answers at a cost independent of `n²`.
    MatrixSample {
        /// How many distinct sources to sample (clamped to the node
        /// count at run time).
        sources: usize,
        /// Sampling seed.
        seed: u64,
        /// Journey start instant.
        start: u64,
        /// Latest admissible departure.
        horizon: u64,
        /// Hop bound.
        max_hops: usize,
    },
    /// Broadcast under the scenario policy as the relay discipline
    /// (`source: None` sweeps every node as a source).
    Broadcast {
        /// Broadcast source; `None` runs the all-sources sweep.
        source: Option<usize>,
        /// Whether the source re-emits at every instant.
        beacons: bool,
        /// Latest admissible departure.
        horizon: u64,
        /// Hop bound.
        max_hops: usize,
    },
    /// Streaming replay: the generated schedule is fed through a
    /// `TvgStream` in event batches, with an incrementally repaired
    /// foremost tree per tick and one batched all-sources query against
    /// the final live snapshot.
    Streaming {
        /// Source node of the incrementally maintained tree.
        src: usize,
        /// Journey start instant.
        start: u64,
        /// Replay horizon (also the latest admissible departure).
        horizon: u64,
        /// Hop bound.
        max_hops: usize,
        /// Events per ingest batch.
        batch: usize,
    },
    /// Live query service: the generated schedule replays through a
    /// `TvgStream` in `ticks` ingest batches while a synthetic client
    /// load (seeded mix of foremost / matrix-row / beaconing-broadcast
    /// requests under a geometric arrival process) is answered
    /// concurrently from epoch-pinned lock-free snapshots. The logical
    /// results are canonical; timing metrics ride outside the
    /// canonical bytes.
    Serve {
        /// Journey start instant shared by every request.
        start: u64,
        /// Replay horizon (also the latest admissible departure).
        horizon: u64,
        /// Hop bound.
        max_hops: usize,
        /// Synthetic requests to generate.
        requests: usize,
        /// Mean inter-arrival gap in instants (geometric arrivals).
        gap: u64,
        /// Integer mix weights `(foremost, matrix, broadcast)`.
        mix: (u64, u64, u64),
        /// Ingest ticks (the writer publishes `ticks + 1` epochs).
        ticks: usize,
        /// Load-generator seed.
        seed: u64,
    },
}

impl Plan {
    /// The plan's spec name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Plan::SingleSource { .. } => "single_source",
            Plan::Matrix { .. } => "matrix",
            Plan::MatrixSample { .. } => "matrix_sample",
            Plan::Broadcast { .. } => "broadcast",
            Plan::Streaming { .. } => "streaming",
            Plan::Serve { .. } => "serve",
        }
    }

    /// The plan's search horizon.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        match self {
            Plan::SingleSource { horizon, .. }
            | Plan::Matrix { horizon, .. }
            | Plan::MatrixSample { horizon, .. }
            | Plan::Broadcast { horizon, .. }
            | Plan::Streaming { horizon, .. }
            | Plan::Serve { horizon, .. } => *horizon,
        }
    }

    /// The plan's journey start instant (0 for `broadcast`, whose
    /// sources are informed from the first instant).
    #[must_use]
    pub fn start(&self) -> u64 {
        match self {
            Plan::SingleSource { start, .. }
            | Plan::Matrix { start, .. }
            | Plan::MatrixSample { start, .. }
            | Plan::Streaming { start, .. }
            | Plan::Serve { start, .. } => *start,
            Plan::Broadcast { .. } => 0,
        }
    }

    /// The plan's hop bound.
    #[must_use]
    pub fn max_hops(&self) -> usize {
        match self {
            Plan::SingleSource { max_hops, .. }
            | Plan::Matrix { max_hops, .. }
            | Plan::MatrixSample { max_hops, .. }
            | Plan::Broadcast { max_hops, .. }
            | Plan::Streaming { max_hops, .. }
            | Plan::Serve { max_hops, .. } => *max_hops,
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plan::SingleSource {
                src,
                start,
                horizon,
                max_hops,
            } => write!(
                f,
                "single_source src={src} start={start} horizon={horizon} max_hops={max_hops}"
            ),
            Plan::Matrix {
                start,
                horizon,
                max_hops,
            } => write!(f, "matrix start={start} horizon={horizon} max_hops={max_hops}"),
            Plan::MatrixSample {
                sources,
                seed,
                start,
                horizon,
                max_hops,
            } => write!(
                f,
                "matrix_sample sources={sources} seed={seed} start={start} \
                 horizon={horizon} max_hops={max_hops}"
            ),
            Plan::Broadcast {
                source,
                beacons,
                horizon,
                max_hops,
            } => {
                write!(f, "broadcast")?;
                if let Some(s) = source {
                    write!(f, " source={s}")?;
                }
                write!(f, " beacons={beacons} horizon={horizon} max_hops={max_hops}")
            }
            Plan::Streaming {
                src,
                start,
                horizon,
                max_hops,
                batch,
            } => write!(
                f,
                "streaming src={src} start={start} horizon={horizon} max_hops={max_hops} batch={batch}"
            ),
            Plan::Serve {
                start,
                horizon,
                max_hops,
                requests,
                gap,
                mix: (wf, wm, wb),
                ticks,
                seed,
            } => write!(
                f,
                "serve start={start} horizon={horizon} max_hops={max_hops} \
                 requests={requests} gap={gap} foremost={wf} matrix={wm} broadcast={wb} \
                 ticks={ticks} seed={seed}"
            ),
        }
    }
}

/// One fully validated scenario: a named workload ready to run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    pub(crate) name: String,
    pub(crate) generator: GeneratorSpec,
    pub(crate) policy: WaitingPolicy<u64>,
    pub(crate) plan: Plan,
    pub(crate) threads: Threads,
}

impl Scenario {
    /// The scenario's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The generator this scenario builds its TVG with.
    #[must_use]
    pub fn generator(&self) -> &GeneratorSpec {
        &self.generator
    }

    /// The waiting policy every plan query runs under.
    #[must_use]
    pub fn policy(&self) -> &WaitingPolicy<u64> {
        &self.policy
    }

    /// The query plan.
    #[must_use]
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The thread policy.
    #[must_use]
    pub fn threads(&self) -> Threads {
        self.threads
    }

    /// The same scenario with a different thread policy (the
    /// thread-invariance oracle pins reports across these).
    #[must_use]
    pub fn with_threads(&self, threads: Threads) -> Scenario {
        Scenario {
            threads,
            ..self.clone()
        }
    }
}

impl fmt::Display for Scenario {
    // The canonical spec text of this scenario (round-trips through
    // `parse_specs`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "scenario {}", self.name)?;
        writeln!(f, "generator {}", self.generator)?;
        writeln!(f, "policy {}", self.policy)?;
        writeln!(f, "plan {}", self.plan)?;
        writeln!(f, "threads {}", self.threads)
    }
}

/// A raw `key=value` parameter map with typed, consuming accessors.
/// Every extraction either yields the declared type or a precise
/// [`SpecError`]; `finish` rejects leftovers so unknown parameters can
/// never pass silently.
pub(crate) struct Params {
    scenario: String,
    context: String,
    map: BTreeMap<String, String>,
}

impl Params {
    fn parse(
        scenario: &str,
        context: &str,
        tokens: &[&str],
        extra: Option<(String, String)>,
    ) -> Result<Params, SpecError> {
        let mut map = BTreeMap::new();
        for token in tokens {
            let Some((key, value)) = token.split_once('=') else {
                return Err(SpecError::MalformedParam {
                    scenario: scenario.to_string(),
                    token: (*token).to_string(),
                });
            };
            if map.insert(key.to_string(), value.to_string()).is_some() {
                return Err(SpecError::DuplicateParam {
                    scenario: scenario.to_string(),
                    param: key.to_string(),
                });
            }
        }
        if let Some((key, value)) = extra {
            if map.insert(key.clone(), value).is_some() {
                return Err(SpecError::DuplicateParam {
                    scenario: scenario.to_string(),
                    param: key,
                });
            }
        }
        Ok(Params {
            scenario: scenario.to_string(),
            context: context.to_string(),
            map,
        })
    }

    fn take(&mut self, key: &'static str) -> Result<String, SpecError> {
        self.map.remove(key).ok_or_else(|| SpecError::MissingParam {
            scenario: self.scenario.clone(),
            context: self.context.clone(),
            param: key,
        })
    }

    fn typed<T>(&self, key: &str, raw: &str, expected: &'static str) -> Result<T, SpecError>
    where
        T: std::str::FromStr,
    {
        raw.parse().map_err(|_| SpecError::BadParamType {
            scenario: self.scenario.clone(),
            param: key.to_string(),
            expected,
            got: raw.to_string(),
        })
    }

    pub(crate) fn u64(&mut self, key: &'static str) -> Result<u64, SpecError> {
        let raw = self.take(key)?;
        self.typed(key, &raw, "u64")
    }

    pub(crate) fn usize(&mut self, key: &'static str) -> Result<usize, SpecError> {
        let raw = self.take(key)?;
        self.typed(key, &raw, "usize")
    }

    pub(crate) fn f64(&mut self, key: &'static str) -> Result<f64, SpecError> {
        let raw = self.take(key)?;
        // Reject the non-finite spellings `f64::from_str` would accept:
        // a spec value must be a plain decimal.
        let value: f64 = self.typed(key, &raw, "f64")?;
        if !value.is_finite() {
            return Err(SpecError::BadParamType {
                scenario: self.scenario.clone(),
                param: key.to_string(),
                expected: "f64",
                got: raw,
            });
        }
        Ok(value)
    }

    pub(crate) fn bool(&mut self, key: &'static str) -> Result<bool, SpecError> {
        let raw = self.take(key)?;
        match raw.as_str() {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(SpecError::BadParamType {
                scenario: self.scenario.clone(),
                param: key.to_string(),
                expected: "bool",
                got: raw,
            }),
        }
    }

    /// Like [`Params::u64`] but with a default when absent.
    pub(crate) fn u64_or(&mut self, key: &'static str, default: u64) -> Result<u64, SpecError> {
        match self.map.remove(key) {
            Some(raw) => self.typed(key, &raw, "u64"),
            None => Ok(default),
        }
    }

    /// Like [`Params::usize`] but optional.
    pub(crate) fn usize_opt(&mut self, key: &'static str) -> Result<Option<usize>, SpecError> {
        match self.map.remove(key) {
            Some(raw) => self.typed(key, &raw, "usize").map(Some),
            None => Ok(None),
        }
    }

    /// A range guard: `check(name, ok, reason)`.
    pub(crate) fn guard(
        &self,
        param: &str,
        ok: bool,
        reason: impl Into<String>,
    ) -> Result<(), SpecError> {
        if ok {
            Ok(())
        } else {
            Err(SpecError::BadParamValue {
                scenario: self.scenario.clone(),
                param: param.to_string(),
                reason: reason.into(),
            })
        }
    }

    pub(crate) fn finish(self) -> Result<(), SpecError> {
        if let Some(param) = self.map.into_keys().next() {
            return Err(SpecError::UnknownParam {
                scenario: self.scenario,
                context: self.context,
                param,
            });
        }
        Ok(())
    }
}

/// Parses a spec file into its scenarios (see the module docs for the
/// format). Every scenario is fully validated; the first problem is
/// returned as a typed [`SpecError`].
pub fn parse_specs(text: &str) -> Result<Vec<Scenario>, SpecError> {
    #[derive(Clone)]
    struct Block {
        name: String,
        generator: Option<Vec<String>>,
        policy: Option<String>,
        plan: Option<Vec<String>>,
        threads: Option<String>,
        seed: Option<String>,
        /// `sweep <param> <value>…` directives, in appearance order.
        sweeps: Vec<(String, Vec<String>)>,
    }

    let mut blocks: Vec<Block> = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line = idx + 1;
        let content = raw_line.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut words = content.split_whitespace();
        let directive = words.next().expect("nonempty line has a first word");
        let rest: Vec<String> = words.map(str::to_string).collect();
        if directive == "scenario" {
            let name = rest.first().cloned().ok_or(SpecError::MissingArgument {
                line,
                directive: "scenario".to_string(),
            })?;
            if rest.len() > 1 {
                return Err(SpecError::SurplusArgument {
                    line,
                    directive: "scenario".to_string(),
                });
            }
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "-_".contains(c))
            {
                return Err(SpecError::BadScenarioName { name });
            }
            if blocks.iter().any(|b| b.name == name) {
                return Err(SpecError::DuplicateScenario { name });
            }
            blocks.push(Block {
                name,
                generator: None,
                policy: None,
                plan: None,
                threads: None,
                seed: None,
                sweeps: Vec::new(),
            });
            continue;
        }
        let Some(block) = blocks.last_mut() else {
            return Err(SpecError::StrayDirective { line });
        };
        let dup = |directive: &str| SpecError::DuplicateDirective {
            scenario: block.name.clone(),
            directive: directive.to_string(),
        };
        let single = |rest: &[String]| -> Result<String, SpecError> {
            match rest {
                [arg] => Ok(arg.clone()),
                [] => Err(SpecError::MissingArgument {
                    line,
                    directive: directive.to_string(),
                }),
                _ => Err(SpecError::SurplusArgument {
                    line,
                    directive: directive.to_string(),
                }),
            }
        };
        match directive {
            "generator" => {
                if rest.is_empty() {
                    return Err(SpecError::MissingArgument {
                        line,
                        directive: directive.to_string(),
                    });
                }
                if block.generator.replace(rest).is_some() {
                    return Err(dup("generator"));
                }
            }
            "plan" => {
                if rest.is_empty() {
                    return Err(SpecError::MissingArgument {
                        line,
                        directive: directive.to_string(),
                    });
                }
                if block.plan.replace(rest).is_some() {
                    return Err(dup("plan"));
                }
            }
            "policy" => {
                if block.policy.replace(single(&rest)?).is_some() {
                    return Err(dup("policy"));
                }
            }
            "threads" => {
                if block.threads.replace(single(&rest)?).is_some() {
                    return Err(dup("threads"));
                }
            }
            "seed" => {
                if block.seed.replace(single(&rest)?).is_some() {
                    return Err(dup("seed"));
                }
            }
            "sweep" => {
                // `sweep <param> <value>…`: a parameter plus at least
                // one value to expand over.
                let [param, values @ ..] = rest.as_slice() else {
                    return Err(SpecError::MissingArgument {
                        line,
                        directive: directive.to_string(),
                    });
                };
                if values.is_empty() {
                    return Err(SpecError::MissingArgument {
                        line,
                        directive: directive.to_string(),
                    });
                }
                if block.sweeps.iter().any(|(p, _)| p == param) {
                    return Err(SpecError::DuplicateParam {
                        scenario: block.name.clone(),
                        param: param.clone(),
                    });
                }
                block.sweeps.push((param.clone(), values.to_vec()));
            }
            other => {
                return Err(SpecError::UnknownDirective {
                    line,
                    directive: other.to_string(),
                })
            }
        }
    }

    if blocks.is_empty() {
        return Err(SpecError::Empty);
    }

    /// A sweep value's contribution to the derived row name: lowercase
    /// alphanumerics only (`wait[2]` → `wait2`, `0.3` → `03`), so every
    /// derived name stays within the scenario-name charset.
    fn sanitize(value: &str) -> String {
        value
            .chars()
            .filter(char::is_ascii_alphanumeric)
            .map(|c| c.to_ascii_lowercase())
            .collect()
    }

    /// Expands a block's sweeps into the cross product of their values:
    /// one concrete block per combination, first sweep varying slowest.
    /// `policy` sweeps set the block's policy text; any other parameter
    /// lands in the generator words (replacing an existing `key=value`
    /// token or appending one).
    fn expand_sweeps(mut block: Block) -> Result<Vec<Block>, SpecError> {
        let sweeps = std::mem::take(&mut block.sweeps);
        let mut rows = vec![block];
        for (param, values) in &sweeps {
            let mut next = Vec::with_capacity(rows.len() * values.len());
            for row in &rows {
                for value in values {
                    let mut r = row.clone();
                    let suffix = sanitize(value);
                    r.name = format!("{}-{suffix}", r.name);
                    if suffix.is_empty() {
                        return Err(SpecError::BadScenarioName { name: r.name });
                    }
                    if param == "policy" {
                        r.policy = Some(value.clone());
                    } else {
                        let words = r.generator.as_mut().ok_or(SpecError::MissingDirective {
                            scenario: r.name.clone(),
                            directive: "generator",
                        })?;
                        let prefix = format!("{param}=");
                        let token = format!("{param}={value}");
                        match words[1..].iter_mut().find(|w| w.starts_with(&prefix)) {
                            Some(w) => *w = token,
                            None => words.push(token),
                        }
                    }
                    next.push(r);
                }
            }
            rows = next;
        }
        Ok(rows)
    }

    let mut expanded: Vec<Block> = Vec::new();
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for block in blocks {
        for row in expand_sweeps(block)? {
            // Derived names can collide (across sweeps, or with a plain
            // block): the same total-validation stance as duplicate
            // `scenario` lines.
            if !seen.insert(row.name.clone()) {
                return Err(SpecError::DuplicateScenario { name: row.name });
            }
            expanded.push(row);
        }
    }

    expanded
        .into_iter()
        .map(|block| {
            let name = block.name;
            let missing = |directive: &'static str| SpecError::MissingDirective {
                scenario: name.clone(),
                directive,
            };
            let generator_words = block.generator.ok_or_else(|| missing("generator"))?;
            let policy_text = block.policy.ok_or_else(|| missing("policy"))?;
            let plan_words = block.plan.ok_or_else(|| missing("plan"))?;

            let generator = {
                let gen_name = generator_words[0].as_str();
                let tokens: Vec<&str> = generator_words[1..].iter().map(String::as_str).collect();
                let extra = block.seed.map(|s| ("seed".to_string(), s));
                let params = Params::parse(&name, gen_name, &tokens, extra)?;
                GeneratorSpec::resolve(&name, gen_name, params)?
            };

            let policy = parse_policy(&name, &policy_text)?;

            let plan = {
                let plan_name = plan_words[0].as_str();
                let tokens: Vec<&str> = plan_words[1..].iter().map(String::as_str).collect();
                let params = Params::parse(&name, plan_name, &tokens, None)?;
                resolve_plan(&name, plan_name, params)?
            };

            let threads = match block.threads.as_deref() {
                None | Some("auto") => Threads::Auto,
                Some(text) => match text.parse::<usize>() {
                    Ok(n) if n > 0 => Threads::Fixed(n),
                    _ => {
                        return Err(SpecError::BadThreads {
                            scenario: name,
                            text: text.to_string(),
                        })
                    }
                },
            };

            // Cross-field validation: plan sources must exist in the
            // generated graph (statically known from the generator).
            let nodes = generator.num_nodes();
            let source = match &plan {
                Plan::SingleSource { src, .. } | Plan::Streaming { src, .. } => Some(*src),
                Plan::Broadcast { source, .. } => *source,
                // Serve requests and matrix samples draw sources from
                // the node range, so they are in range by construction.
                Plan::Matrix { .. } | Plan::MatrixSample { .. } | Plan::Serve { .. } => None,
            };
            if let Some(src) = source {
                if src >= nodes {
                    return Err(SpecError::SourceOutOfRange {
                        scenario: name,
                        src,
                        nodes,
                    });
                }
            }

            // A streaming plan over the churn family replays the
            // generator's own event feed (joins/leaves included), so the
            // stream's window must cover every feed instant.
            if let (
                GeneratorSpec::PeerLifecycle {
                    horizon: feed_horizon,
                    ..
                },
                Plan::Streaming { horizon, .. },
            ) = (&generator, &plan)
            {
                if horizon < feed_horizon {
                    return Err(SpecError::BadParamValue {
                        scenario: name,
                        param: "horizon".to_string(),
                        reason: format!(
                            "streaming horizon {horizon} must cover the churn feed's \
                             horizon {feed_horizon}"
                        ),
                    });
                }
            }

            Ok(Scenario {
                name,
                generator,
                policy,
                plan,
                threads,
            })
        })
        .collect()
}

/// Parses the paper's policy notation: `nowait` | `wait` | `wait[d]`.
fn parse_policy(scenario: &str, text: &str) -> Result<WaitingPolicy<u64>, SpecError> {
    let bad = || SpecError::BadPolicy {
        scenario: scenario.to_string(),
        text: text.to_string(),
    };
    match text {
        "nowait" => Ok(WaitingPolicy::NoWait),
        "wait" => Ok(WaitingPolicy::Unbounded),
        _ => {
            let d = text
                .strip_prefix("wait[")
                .and_then(|rest| rest.strip_suffix(']'))
                .ok_or_else(bad)?;
            Ok(WaitingPolicy::Bounded(d.parse().map_err(|_| bad())?))
        }
    }
}

fn resolve_plan(scenario: &str, plan_name: &str, mut p: Params) -> Result<Plan, SpecError> {
    // A start past the horizon admits no departure at all: every query
    // would return a vacuous all-unreached report (and `bless` would
    // bake it into a golden), so reject the typo at parse time.
    let start_in_horizon = |p: &Params, start: u64, horizon: u64| {
        p.guard(
            "start",
            start <= horizon,
            format!("start {start} is past horizon {horizon}"),
        )
    };
    // Stream-backed plans need `horizon + 1` representable (the live
    // index's provisional close of open spans): reject the overflow at
    // parse time so the runtime can rely on construction succeeding.
    let successor_representable = |p: &Params, horizon: u64| {
        p.guard(
            "horizon",
            horizon < u64::MAX,
            "horizon + 1 must be representable (streams close open spans there)",
        )
    };
    let plan = match plan_name {
        "single_source" => {
            let src = p.usize("src")?;
            let start = p.u64_or("start", 0)?;
            let horizon = p.u64("horizon")?;
            start_in_horizon(&p, start, horizon)?;
            let max_hops = default_hops(&mut p, horizon)?;
            Plan::SingleSource {
                src,
                start,
                horizon,
                max_hops,
            }
        }
        "matrix" => {
            let start = p.u64_or("start", 0)?;
            let horizon = p.u64("horizon")?;
            start_in_horizon(&p, start, horizon)?;
            let max_hops = default_hops(&mut p, horizon)?;
            Plan::Matrix {
                start,
                horizon,
                max_hops,
            }
        }
        "matrix_sample" => {
            let sources = p.usize("sources")?;
            p.guard("sources", sources > 0, "a sample needs at least one source")?;
            let seed = p.u64_or("seed", 0)?;
            let start = p.u64_or("start", 0)?;
            let horizon = p.u64("horizon")?;
            start_in_horizon(&p, start, horizon)?;
            let max_hops = default_hops(&mut p, horizon)?;
            Plan::MatrixSample {
                sources,
                seed,
                start,
                horizon,
                max_hops,
            }
        }
        "broadcast" => {
            let source = p.usize_opt("source")?;
            let beacons = p.bool("beacons")?;
            let horizon = p.u64("horizon")?;
            // A beaconing source materializes one seed per instant (one
            // re-emission each step, except under unbounded waiting):
            // bound the horizon so "check passes" extends to "run
            // allocates sanely" — total validation covers allocation.
            p.guard(
                "horizon",
                !beacons || horizon < 65_536,
                "beacons=true seeds one copy per instant; horizon must be < 65536",
            )?;
            let max_hops = default_hops(&mut p, horizon)?;
            Plan::Broadcast {
                source,
                beacons,
                horizon,
                max_hops,
            }
        }
        "streaming" => {
            let src = p.usize("src")?;
            let start = p.u64_or("start", 0)?;
            let horizon = p.u64("horizon")?;
            start_in_horizon(&p, start, horizon)?;
            successor_representable(&p, horizon)?;
            let max_hops = default_hops(&mut p, horizon)?;
            let batch = p.usize("batch")?;
            p.guard("batch", batch > 0, "batch size must be positive")?;
            Plan::Streaming {
                src,
                start,
                horizon,
                max_hops,
                batch,
            }
        }
        "serve" => {
            let start = p.u64_or("start", 0)?;
            let horizon = p.u64("horizon")?;
            start_in_horizon(&p, start, horizon)?;
            successor_representable(&p, horizon)?;
            let max_hops = default_hops(&mut p, horizon)?;
            let requests = p.usize("requests")?;
            p.guard("requests", requests > 0, "a serve run needs requests")?;
            let gap = p.u64("gap")?;
            p.guard("gap", gap > 0, "mean arrival gap must be at least 1")?;
            let mix = (
                p.u64_or("foremost", 1)?,
                p.u64_or("matrix", 1)?,
                p.u64_or("broadcast", 1)?,
            );
            p.guard(
                "foremost",
                mix.0 + mix.1 + mix.2 > 0,
                "the request mix needs a positive weight",
            )?;
            // Broadcast requests beacon (one seed per instant), so the
            // same allocation bound as the broadcast plan applies.
            p.guard(
                "horizon",
                mix.2 == 0 || horizon < 65_536,
                "broadcast requests beacon one seed per instant; horizon must be < 65536",
            )?;
            let ticks = p.usize("ticks")?;
            p.guard(
                "ticks",
                ticks > 0,
                "the writer needs at least one ingest tick (two published epochs)",
            )?;
            let seed = p.u64("seed")?;
            Plan::Serve {
                start,
                horizon,
                max_hops,
                requests,
                gap,
                mix,
                ticks,
                seed,
            }
        }
        other => {
            return Err(SpecError::UnknownPlan {
                scenario: scenario.to_string(),
                name: other.to_string(),
            })
        }
    };
    p.finish()?;
    Ok(plan)
}

/// `max_hops` defaults to `horizon + 1` (saturating into `usize`): with
/// unit-latency workloads no simple journey within the horizon is
/// longer, so the default never truncates.
fn default_hops(p: &mut Params, horizon: u64) -> Result<usize, SpecError> {
    match p.usize_opt("max_hops")? {
        Some(h) => Ok(h),
        None => Ok(usize::try_from(horizon.saturating_add(1)).unwrap_or(usize::MAX)),
    }
}
