//! Waiting only adds journeys, on every index form.
//!
//! The paper's policy monotonicity (see `tvg_testkit::waitcheck`) is a
//! property of the model, so it must hold whichever index answers the
//! query. Each test draws testkit's generated graphs — small random
//! periodic TVGs, and every fourth case a scale-free contact graph of
//! 20 to 40 nodes — and checks the property on one index form: the
//! compiled `TvgIndex`, every epoch a serve ring publishes while a
//! replay feed is ingested, and a `ShardedIndex` opened from a `.tvgi`.

use rand::Rng;
use tvg_journeys::SearchLimits;
use tvg_model::generators::scale_free_temporal;
use tvg_model::stream::TvgStream;
use tvg_model::tvgi::{write_tvgi, ShardedIndex};
use tvg_model::{Tvg, TvgIndex};
use tvg_serve::EpochRing;
use tvg_testkit::gen;
use tvg_testkit::tvgicheck::scratch_path;
use tvg_testkit::waitcheck::assert_waiting_only_adds_journeys;

const HORIZON: u64 = 25;

fn limits() -> SearchLimits<u64> {
    SearchLimits::new(HORIZON, 6)
}

/// The case's graph and journey start instant.
fn case_graph(rng: &mut rand::rngs::StdRng, case: usize) -> (Tvg<u64>, u64) {
    let g = if case % 4 == 3 {
        scale_free_temporal(rng.gen_range(20..40), HORIZON, rng.gen())
    } else {
        gen::periodic_tvg(rng)
    };
    (g, rng.gen_range(0..6))
}

#[test]
fn compiled_index_only_gains_journeys_by_waiting() {
    tvg_testkit::check(
        "compiled_index_only_gains_journeys_by_waiting",
        |rng, case| {
            let (g, start) = case_graph(rng, case);
            let index = TvgIndex::compile(&g, HORIZON);
            assert_waiting_only_adds_journeys(&index, start, &limits(), &format!("case {case}"));
        },
    );
}

#[test]
fn every_served_epoch_only_gains_journeys_by_waiting() {
    tvg_testkit::check(
        "every_served_epoch_only_gains_journeys_by_waiting",
        |rng, case| {
            let (g, start) = case_graph(rng, case);
            let (mut stream, events) = TvgStream::replay_of(&g, &HORIZON).expect("small horizon");
            let ticks: Vec<_> = events.chunks(events.len().div_ceil(4).max(1)).collect();
            let ring = EpochRing::new(ticks.len() + 1);
            ring.publish(0, stream.snapshot());
            for (i, tick) in ticks.iter().enumerate() {
                stream.ingest(tick).expect("replay feeds are valid");
                ring.publish(i as u64 + 1, stream.snapshot());
            }
            for epoch in 0..ring.published() as u64 {
                let snap = ring.get(epoch).expect("published");
                let label = format!("case {case} epoch {epoch}");
                assert_waiting_only_adds_journeys(&snap.index, start, &limits(), &label);
            }
        },
    );
}

#[test]
fn tvgi_index_only_gains_journeys_by_waiting() {
    tvg_testkit::check("tvgi_index_only_gains_journeys_by_waiting", |rng, case| {
        let (g, start) = case_graph(rng, case);
        let path = scratch_path(&format!("waiting-{case}"));
        write_tvgi(&TvgIndex::compile(&g, HORIZON), 3, None, &path).expect("writes");
        let index = ShardedIndex::<u64>::open(&path).expect("opens");
        let _ = std::fs::remove_file(&path);
        assert_waiting_only_adds_journeys(&index, start, &limits(), &format!("case {case}"));
    });
}
