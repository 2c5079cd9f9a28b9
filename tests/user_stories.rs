//! Integration tests mirroring the examples: the workflows a downstream
//! user would actually run, end to end.

use std::collections::BTreeSet;
use tvg_suite::expressivity::TvgAutomaton;
use tvg_suite::journeys::{
    fastest_journey, foremost_journey, shortest_journey, ReachabilityMatrix, SearchLimits,
    WaitingPolicy,
};
use tvg_suite::langs::word;
use tvg_suite::model::{Latency, NodeId, Presence, TemporalIndex, TvgBuilder};
use tvg_testkit::fixtures::{commuter_line, ring_bus};

#[test]
fn quickstart_story() {
    let mut b = TvgBuilder::<u64>::new();
    let v0 = b.node("v0");
    let v1 = b.node("v1");
    let v2 = b.node("v2");
    b.edge(v0, v1, 'a', Presence::At(1), Latency::unit())
        .expect("valid");
    b.edge(v1, v2, 'b', Presence::At(5), Latency::unit())
        .expect("valid");
    let g = b.build().expect("valid");

    let limits = SearchLimits::new(10, 5);
    assert!(foremost_journey(&g, v0, v2, &1, &WaitingPolicy::NoWait, &limits).is_none());
    assert!(foremost_journey(&g, v0, v2, &1, &WaitingPolicy::Bounded(3), &limits).is_some());

    let aut = TvgAutomaton::new(g, BTreeSet::from([v0]), BTreeSet::from([v2]), 1).expect("valid");
    assert!(!aut.accepts(&word("ab"), &WaitingPolicy::NoWait, &limits));
    assert!(aut.accepts(&word("ab"), &WaitingPolicy::Unbounded, &limits));
    let lang = aut.language_upto(&WaitingPolicy::Unbounded, &limits, 3);
    assert_eq!(lang, BTreeSet::from([word("ab")]));
}

#[test]
fn bus_network_story() {
    let line = commuter_line();
    let limits = SearchLimits::new(30, 8);
    let (src, dst) = (NodeId::from_index(0), NodeId::from_index(3));

    let foremost = foremost_journey(&line, src, dst, &0, &WaitingPolicy::Unbounded, &limits)
        .expect("connected over time");
    assert_eq!(foremost.arrival(), Some(&7)); // 2→3, wait, 5→6, 6→7
    let shortest = shortest_journey(&line, src, dst, &0, &WaitingPolicy::Unbounded, &limits)
        .expect("connected over time");
    assert_eq!(shortest.num_hops(), 3);
    let fastest = fastest_journey(&line, src, dst, &0, &WaitingPolicy::Unbounded, &limits)
        .expect("connected over time");
    // Departing at 2 yields duration 5 (2 → 7); later departures chain
    // 10 → 13 → 14 … duration 5 as well (10→15? 10+1=11, wait 13→14,
    // 14→15: duration 5). Fastest is 5.
    assert_eq!(fastest.duration(), 5);

    // Timetables never chain exactly ⇒ no direct journey.
    assert!(foremost_journey(&line, src, dst, &0, &WaitingPolicy::NoWait, &limits).is_none());
}

#[test]
fn ring_bus_story() {
    let ring = ring_bus(6, 6);
    let limits = SearchLimits::new(60, 12);
    let wait = ReachabilityMatrix::compute(&ring, &0, &WaitingPolicy::Unbounded, &limits);
    assert!(wait.is_temporally_connected());
    // Consecutive phases align with unit latency, so even direct journeys
    // circulate here — the matrix quantifies rather than assumes.
    let nowait = ReachabilityMatrix::compute(&ring, &0, &WaitingPolicy::NoWait, &limits);
    assert!(nowait.reachability_ratio() <= wait.reachability_ratio());
}

#[test]
fn live_commuter_feed_story() {
    // The commuter timetable, but arriving as a live feed: each "day"
    // (8 ticks) streams in as one batch of up/down contact events plus a
    // horizon extension, and a traveler standing at stop 0 since t=4
    // (just after the day-0 bus has left) re-plans after every day with
    // an incrementally repaired foremost tree.
    use tvg_suite::journeys::{foremost_tree, IncrementalForemost};
    use tvg_suite::model::stream::{StreamEvent, TvgStream};
    use tvg_suite::model::{Latency, TvgIndex};

    // The commuter_line() timetable, one departure set per hop.
    let timetable: [&[u64]; 3] = [&[2, 10, 18], &[5, 13, 21], &[6, 14, 22]];
    let mut feed = TvgStream::<u64>::new(7).expect("7 + 1 is representable");
    let stops: Vec<_> = (0..4).map(|i| feed.add_node(&format!("stop{i}"))).collect();
    let hops: Vec<_> = (0..3)
        .map(|i| {
            feed.add_edge(stops[i], stops[i + 1], 't', Latency::unit())
                .expect("valid")
        })
        .collect();

    let (src, policy) = (stops[0], WaitingPolicy::Unbounded);
    let limits = SearchLimits::new(23, 8);
    let mut planner = IncrementalForemost::new(feed.index(), &[(src, 4)], policy, limits.clone());
    let mut delivered_by_day = Vec::new();
    for day in 0u64..3 {
        let mut batch: Vec<StreamEvent<u64>> = Vec::new();
        if day > 0 {
            batch.push(StreamEvent::ExtendHorizon { to: 8 * day + 7 });
        }
        let mut events: Vec<(u64, usize)> = Vec::new();
        for (i, departures) in timetable.iter().enumerate() {
            for &dep in departures.iter().filter(|d| **d / 8 == day) {
                events.push((dep, i));
            }
        }
        events.sort_unstable();
        for (dep, i) in events {
            batch.push(StreamEvent::Up {
                edge: hops[i],
                at: dep,
            });
            batch.push(StreamEvent::Down {
                edge: hops[i],
                at: dep + 1,
            });
        }
        let report = feed.ingest(&batch).expect("the timetable is a valid feed");
        planner.refresh(feed.index(), &report);

        // The live answer after each day must equal the batch answer on
        // the schedule accumulated so far (recompile + fresh run).
        let batch_tvg = feed.to_tvg();
        let batch_index = TvgIndex::compile(&batch_tvg, *feed.index().horizon());
        let fresh = foremost_tree(&batch_index, src, &4, &policy, &limits);
        for &stop in &stops {
            assert_eq!(
                planner.arrival(stop),
                fresh.arrival(stop),
                "day {day} {stop}"
            );
        }
        delivered_by_day.push(planner.num_reached() as f64 / 4.0);
    }
    // Day 0 the traveler has missed every bus; day 1 delivers everywhere;
    // delivery never regresses as more schedule streams in.
    assert_eq!(delivered_by_day, vec![0.25, 1.0, 1.0]);
    assert!(delivered_by_day.windows(2).all(|w| w[0] <= w[1]));
    // And the final live answer equals the all-batch fixture answer.
    let all = commuter_line();
    let final_index = TvgIndex::compile(&all, 23);
    let batch_final = foremost_tree(&final_index, src, &4, &policy, &limits);
    for &stop in &stops {
        assert_eq!(planner.arrival(stop), batch_final.arrival(stop), "{stop}");
    }
    assert_eq!(planner.arrival(stops[3]), Some(&15)); // 10→11, 13→14, 14→15
}

#[test]
fn scenario_runtime_story() {
    // The workflow the scenario runtime exists for: a workload is a text
    // file, not a Rust program. Parse a bundled spec, run it, and pin
    // its headline numbers — then check the canonical bytes against the
    // same checked-in golden the `tvg-cli verify` CI gate diffs.
    use tvg_suite::dynnet::json::Json;
    use tvg_suite::scenarios::parse_specs;
    use tvg_testkit::speccheck::{assert_golden, assert_roundtrip, assert_thread_invariant};

    let spec_text = include_str!("../scenarios/ring-matrix.tvgs");
    let golden = include_str!("../scenarios/golden/ring-matrix.json");
    let scenarios = parse_specs(spec_text).expect("bundled spec parses");
    assert_eq!(scenarios.len(), 1);
    let scenario = &scenarios[0];
    assert_eq!(scenario.name(), "ring-matrix");
    assert_roundtrip(scenario);

    // Headline numbers: the 8-stop staggered ring under wait[3] — one
    // engine run per source, and waiting 3 < period 8 only carries a
    // traveler halfway around before the horizon's hop budget, so
    // exactly half the ordered pairs connect.
    let report = assert_thread_invariant(scenario);
    assert_eq!(report.engine_stats().runs, 8);
    let Json::Obj(results) = report.results() else {
        panic!("results is an object");
    };
    assert_eq!(results["ratio"], Json::Num(0.5));
    assert_eq!(results["diameter"], Json::Int(10));

    // The bytes CI diffs are these bytes.
    assert_golden(spec_text, golden);

    // And the same numbers fall out of the raw library pipeline — the
    // spec is a description of this code path, not a reimplementation.
    let m = ReachabilityMatrix::compute(
        &tvg_suite::model::generators::ring_bus_tvg(8, 8, 'r'),
        &0,
        &WaitingPolicy::Bounded(3),
        &SearchLimits::new(64, 16),
    );
    assert_eq!(m.reachability_ratio(), 0.5);
}

#[test]
fn live_service_story() {
    // The serve runtime end to end: a schedule streams in while clients
    // query it. One writer publishes a lock-free snapshot epoch per
    // ingest tick; reader threads answer a seeded request mix pinned to
    // epochs by arrival time.
    use tvg_suite::model::generators::scale_free_temporal;
    use tvg_suite::model::stream::TvgStream;
    use tvg_suite::serve::{generate_load, serve, LoadSpec, ServeConfig};

    let g = scale_free_temporal(16, 32, 7);
    let (stream, events) = TvgStream::replay_of(&g, &32).expect("representable");
    let ticks: Vec<_> = events
        .chunks(events.len().div_ceil(4))
        .map(<[_]>::to_vec)
        .collect();
    let requests = generate_load(&LoadSpec {
        requests: 48,
        mean_gap: 2,
        mix: (3, 2, 1),
        nodes: g.num_nodes(),
        seed_instant: 0,
        seed: 21,
    });
    let outcome = serve(
        stream,
        &ticks,
        &requests,
        &ServeConfig {
            readers: 4,
            policy: WaitingPolicy::Unbounded,
            limits: SearchLimits::new(32, 33),
            start: 0,
        },
    )
    .expect("replay is a valid feed");

    // The writer really published mid-run epochs (the service answered
    // from more than one world), every request got an answer, and
    // grouping amortized shared sources into fewer engine passes.
    assert!(outcome.epochs_published >= 2, "mid-run epochs");
    assert_eq!(outcome.served.len(), 48);
    assert!(
        outcome.served.iter().any(|s| s.epoch > 0),
        "late epochs served"
    );
    assert!(outcome.grouped_runs <= 48);
    assert_eq!(outcome.stats.runs, outcome.grouped_runs);
    // Timing is measured, real, and strictly non-canonical.
    assert!(outcome.timing.wall_micros > 0);
}

#[test]
fn every_bundled_scenario_reproduces_its_golden() {
    // Every bundled spec under scenarios/, against its golden,
    // discovered from the directory so a new spec is covered the moment
    // it lands: `cargo test` fails on report drift (or an unblessed
    // spec) before CI ever sees it.
    use tvg_testkit::speccheck::assert_golden;
    let dir = tvg_cli::bundled_scenarios_dir();
    for (spec, golden) in tvg_cli::spec_files(&dir).expect("bundled specs exist") {
        let spec_text = std::fs::read_to_string(&spec).expect("spec reads");
        let golden_text = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
            panic!("{}: {e} (run `tvg-cli bless scenarios`)", golden.display())
        });
        assert_golden(&spec_text, &golden_text);
    }
}

#[test]
fn snapshots_and_footprint_story() {
    let ring = ring_bus(4, 4);
    // At any instant exactly one ring edge is up (phases are staggered).
    for t in 0u64..8 {
        assert_eq!(ring.snapshot(&t).len(), 1, "t={t}");
    }
    // The footprint over all time is the full cycle.
    let footprint = ring.underlying_graph();
    assert_eq!(footprint.num_edges(), 4);
    assert!(footprint.is_strongly_connected());
    // No single snapshot is connected — the paper's opening scenario.
    for t in 0u64..4 {
        assert!(!ring.snapshot_graph(&t).is_strongly_connected());
    }
}
