//! End-to-end reproduction of the paper's results, spanning all crates.
//!
//! Each test is a reduced-scale version of an EXPERIMENTS.md experiment;
//! the `experiments` binary in `tvg-bench` runs the full-scale versions,
//! and the `bench_medians` registry (`tvg_bench::registry`) times them.
//! All randomness flows through `tvg-testkit` fixtures, so the suite is
//! reproducible run to run.

use std::collections::BTreeSet;
use std::sync::Arc;
use tvg_suite::expressivity::anbn::{anbn_word, is_anbn};
use tvg_suite::expressivity::dilation::{dilation_disagreements, waiting_gain};
use tvg_suite::expressivity::nowait_power::DeciderAutomaton;
use tvg_suite::expressivity::wait_regular::{
    dfa_to_tvg_automaton, periodic_to_nfa, sufficient_limits,
};
use tvg_suite::expressivity::TvgAutomaton;
use tvg_suite::journeys::{SearchLimits, WaitingPolicy};
use tvg_suite::langs::sample::words_upto;
use tvg_suite::langs::{machines, myhill, word, Alphabet, Grammar, Word};
use tvg_suite::model::generators::RandomPeriodicParams;
use tvg_testkit::fixtures::{figure1, periodic_family_automaton, small_periodic_params};
use tvg_testkit::oracles::regex_dfa;

// ---------------------------------------------------------------- E1 --

#[test]
fn e1_figure1_language_is_anbn_exhaustive() {
    let aut = figure1();
    for w in words_upto(&Alphabet::ab(), 11) {
        assert_eq!(aut.accepts_nowait(&w), is_anbn(&w), "{w}");
    }
}

#[test]
fn e1_figure1_deep_membership() {
    let aut = figure1();
    assert!(aut.accepts_nowait(&anbn_word(50)));
    assert!(!aut.accepts_nowait(&word(&format!("{}{}", "a".repeat(50), "b".repeat(49)))));
}

#[test]
fn e1_nonregularity_witness_residual_growth() {
    // aⁿbⁿ is not regular: residual counts grow strictly with the prefix
    // budget. This pins the *point* of Figure 1 — a TVG expressing a
    // non-regular language without waiting.
    let aut = figure1();
    let growth = myhill::residual_growth(&Alphabet::ab(), 5, 5, |w| aut.accepts_nowait(w));
    for i in 1..growth.len() {
        assert!(growth[i] > growth[i - 1], "growth stalled: {growth:?}");
    }
}

// ---------------------------------------------------------------- E2 --

#[test]
fn e2_turing_machine_in_the_schedule() {
    let aut = DeciderAutomaton::from_turing_machine(Alphabet::abc(), machines::anbncn(), 100_000);
    let tm = machines::anbncn();
    for w in words_upto(&Alphabet::abc(), 6) {
        if w.is_empty() {
            continue;
        }
        assert_eq!(aut.accepts_nowait(&w), tm.decide(&w, 100_000), "{w}");
    }
}

#[test]
fn e2_grammar_in_the_schedule() {
    let g = Grammar::dyck1();
    let aut = DeciderAutomaton::new(Alphabet::ab(), Arc::new(move |w| g.recognizes(w)));
    for w in words_upto(&Alphabet::ab(), 8) {
        if w.is_empty() {
            continue;
        }
        assert_eq!(
            aut.accepts_nowait(&w),
            Grammar::dyck1().recognizes(&w),
            "{w}"
        );
    }
}

// ---------------------------------------------------------------- E3 --

#[test]
fn e3_periodic_wait_languages_are_regular() {
    let alphabet = Alphabet::ab();
    let params = RandomPeriodicParams {
        num_edges: 6,
        ..small_periodic_params(3)
    };
    for seed in 0..6u64 {
        let aut = periodic_family_automaton(&params, seed);
        let nfa = periodic_to_nfa(&aut, 3, &WaitingPolicy::Unbounded, &alphabet)
            .expect("periodic by construction");
        let limits = sufficient_limits(&aut, 3, 6);
        let simulated = aut.language_upto(&WaitingPolicy::Unbounded, &limits, 6);
        let compiled: BTreeSet<Word> = nfa.to_dfa().language_upto(6).into_iter().collect();
        assert_eq!(simulated, compiled, "seed {seed}");
    }
}

#[test]
fn e3_regular_languages_embed_into_wait() {
    let alphabet = Alphabet::ab();
    let dfa = regex_dfa("(a|b)*ba", &alphabet);
    let aut = dfa_to_tvg_automaton(&dfa);
    let limits = SearchLimits::new(20, 7);
    for policy in [
        WaitingPolicy::NoWait,
        WaitingPolicy::Bounded(2),
        WaitingPolicy::Unbounded,
    ] {
        for w in words_upto(&alphabet, 6) {
            assert_eq!(
                aut.accepts(&w, &policy, &limits),
                dfa.accepts(&w),
                "{policy} {w}"
            );
        }
    }
}

#[test]
fn e3_wait_residuals_saturate_on_periodic_graph() {
    let alphabet = Alphabet::ab();
    let params = RandomPeriodicParams {
        num_nodes: 3,
        num_edges: 5,
        phase_density: 0.6,
        ..small_periodic_params(2)
    };
    let aut = periodic_family_automaton(&params, 5);
    // Oracle through the compiled DFA (fast and exact).
    let dfa = periodic_to_nfa(&aut, 2, &WaitingPolicy::Unbounded, &alphabet)
        .expect("periodic")
        .to_dfa()
        .minimize();
    assert!(myhill::residuals_saturated(&alphabet, 5, 4, |w| dfa.accepts(w)));
    // The residual lower bound matches the minimal DFA state count
    // (possibly off by the dead state if unreachable in budget).
    let r = myhill::residual_lower_bound(&alphabet, 5, 4, |w| dfa.accepts(w));
    assert!(r.residual_count <= dfa.num_states());
}

#[test]
fn e3_wait_language_is_learnable_from_queries() {
    // Theorem 2.2, operationalized: because L_wait is regular, Angluin's
    // L* reconstructs it from *membership queries against the journey
    // simulator* — no access to the graph structure at all.
    use tvg_suite::langs::learn::{bounded_equivalence, learn_dfa};
    let alphabet = Alphabet::ab();
    let aut = periodic_family_automaton(&small_periodic_params(3), 7);
    let limits = sufficient_limits(&aut, 3, 8);
    let oracle = |w: &Word| aut.accepts(w, &WaitingPolicy::Unbounded, &limits);
    let learned = learn_dfa(
        &alphabet,
        oracle,
        |hyp| bounded_equivalence(hyp, oracle, &alphabet, 7),
        32,
    )
    .expect("regular languages are learnable");
    // The learned DFA matches the compiled one exactly.
    let compiled = periodic_to_nfa(&aut, 3, &WaitingPolicy::Unbounded, &alphabet)
        .expect("periodic")
        .to_dfa()
        .minimize();
    assert!(learned.equivalent_to(&compiled));
    assert_eq!(learned.num_states(), compiled.num_states());
}

// ---------------------------------------------------------------- E4 --

#[test]
fn e4_dilation_equalizes_bounded_wait_and_nowait() {
    let alphabet = Alphabet::ab();
    let params = RandomPeriodicParams {
        num_edges: 6,
        phase_density: 0.35,
        ..small_periodic_params(4)
    };
    for seed in 0..4u64 {
        let aut = periodic_family_automaton(&params, seed + 100);
        let limits = SearchLimits::new(40, 6);
        for d in [1u64, 3] {
            assert!(
                dilation_disagreements(&aut, d, &alphabet, 5, &limits).is_empty(),
                "seed {seed} d {d}"
            );
        }
    }
}

#[test]
fn e4_waiting_gains_exist_without_dilation() {
    // Control: on at least one standard graph, wait[d] ⊋ nowait before
    // dilation — so E4's equality is not vacuous.
    let alphabet = Alphabet::ab();
    let mut b = tvg_suite::model::TvgBuilder::<u64>::new();
    let v = b.nodes(3);
    b.edge(
        v[0],
        v[1],
        'a',
        tvg_suite::model::Presence::Periodic {
            period: 4,
            phases: BTreeSet::from([0]),
        },
        tvg_suite::model::Latency::unit(),
    )
    .expect("valid");
    b.edge(
        v[1],
        v[2],
        'b',
        tvg_suite::model::Presence::Periodic {
            period: 4,
            phases: BTreeSet::from([3]),
        },
        tvg_suite::model::Latency::unit(),
    )
    .expect("valid");
    let aut = TvgAutomaton::new(
        b.build().expect("valid"),
        BTreeSet::from([v[0]]),
        BTreeSet::from([v[2]]),
        0,
    )
    .expect("valid");
    let limits = SearchLimits::new(40, 6);
    assert!(!waiting_gain(&aut, 2, &alphabet, 4, &limits).is_empty());
}

#[test]
fn e4_nonregular_survives_bounded_waiting() {
    // L_wait[d] contains a^n b^n (via the dilated Figure 1) — so bounded
    // waiting keeps super-regular power, in contrast with Theorem 2.2.
    let fig1 = figure1();
    let d = 2u64;
    for n in 1..=4usize {
        assert!(fig1.automaton().dilate(d).accepts(
            &anbn_word(n),
            &WaitingPolicy::Bounded(tvg_suite::bigint::Nat::from(d)),
            &{
                let inner = fig1.limits_for(2 * n);
                SearchLimits::new(
                    tvg_suite::model::Time::checked_mul_u64(&inner.horizon, d + 1)
                        .expect("nat never overflows"),
                    inner.max_hops,
                )
            },
        ));
    }
}

// ---------------------------------------------------------------- E5 --

#[test]
fn e5_buffering_dominates_on_markovian_traces() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tvg_suite::dynnet::broadcast::{run_broadcast, BroadcastConfig, ForwardingMode};
    use tvg_suite::dynnet::markovian::{edge_markovian_trace, EdgeMarkovianParams};
    // Per-seed traces are drawn from explicitly seeded StdRngs — the
    // sweep itself is the E5 experiment's seed schedule.
    let params = EdgeMarkovianParams {
        num_nodes: 16,
        p_birth: 0.005,
        p_death: 0.6,
        steps: 80,
    };
    let mut scf_total = 0.0;
    let mut nw_total = 0.0;
    for seed in 0..8u64 {
        let trace = edge_markovian_trace(&mut StdRng::seed_from_u64(seed), &params);
        let scf = run_broadcast(
            &trace,
            &BroadcastConfig {
                source: 0,
                mode: ForwardingMode::StoreCarryForward,
                source_beacons: true,
            },
        );
        let nw = run_broadcast(
            &trace,
            &BroadcastConfig {
                source: 0,
                mode: ForwardingMode::NoWaitRelay,
                source_beacons: true,
            },
        );
        scf_total += scf.stats().delivery_ratio;
        nw_total += nw.stats().delivery_ratio;
    }
    // In the sparse/high-churn regime the gap must be substantial.
    assert!(
        scf_total > nw_total + 1.0,
        "scf {scf_total} vs nowait {nw_total}"
    );
}
