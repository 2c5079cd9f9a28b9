//! In-memory vs file-backed index query race (experiment E14): the
//! compiled [`TvgIndex`] against a [`ShardedIndex`] reopened from the
//! `.tvgi` file it was serialized to, on an n=20k scale-free temporal
//! graph.
//!
//! Three comparisons:
//!
//! * `serialize`: `write_tvgi` + `ShardedIndex::open` round-trip cost
//!   by shard count — the amortized half of compile-once/query-many
//!   (what `tvg-cli compile` pays once so every later `run --index`
//!   process can skip the compile);
//! * `foremost_tree`: one-source-to-all-nodes engine pass on each index
//!   form under each waiting policy — the file-backed arena must not
//!   cost the engine an order of magnitude over the in-memory arrays;
//! * `scan`: straight-line structural traversal (adjacency +
//!   destination + monotone flag for every edge of every node) on each
//!   form — isolates accessor overhead from engine control flow.
//!
//! Every timed pair is preceded by an equality assertion (arrival
//! multiset and reach count): racing two indexes is only meaningful if
//! they answer identically, and the `.tvgi` round-trip oracle contract
//! (`tvg_testkit::tvgicheck`) is what licenses the substitution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tvg_journeys::engine::foremost_tree;
use tvg_journeys::{SearchLimits, WaitingPolicy};
use tvg_model::generators::scale_free_temporal;
use tvg_model::tvgi::{write_tvgi, ShardedIndex};
use tvg_model::{NodeId, TemporalIndex, TvgIndex};

const NODES: usize = 20_000;
const HORIZON: u64 = 64;

/// Scratch `.tvgi` path for this bench process.
fn scratch(label: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mmap-query-{}-{label}.tvgi", std::process::id()))
}

/// The E14 graph. The in-memory index borrows it, so each bench fn
/// compiles its own index over a locally built graph.
fn graph() -> tvg_model::Tvg<u64> {
    scale_free_temporal(NODES, HORIZON, 29)
}

/// Serializes `index` to a scratch file under `label` and reopens it.
fn file_twin(index: &TvgIndex<'_, u64>, label: &str) -> (ShardedIndex<u64>, std::path::PathBuf) {
    let path = scratch(label);
    write_tvgi(index, 4, None, &path).expect("scratch .tvgi writes");
    let mapped = ShardedIndex::open(&path).expect("just-written file opens");
    (mapped, path)
}

fn bench_serialize(c: &mut Criterion) {
    let g = graph();
    let index = TvgIndex::compile(&g, HORIZON);
    eprintln!(
        "mmap_query workload: {} nodes, {} edges, horizon {HORIZON}, {} edge events",
        g.num_nodes(),
        g.num_edges(),
        index.num_edge_events()
    );
    let mut group = c.benchmark_group("mmap_query_serialize");
    group.sample_size(10);
    for shards in [1u32, 4, 16] {
        let path = scratch(&format!("s{shards}"));
        group.bench_with_input(BenchmarkId::new("write", shards), &index, |b, index| {
            b.iter(|| {
                write_tvgi(index, shards, None, &path)
                    .expect("writes")
                    .bytes
            });
        });
        group.bench_with_input(BenchmarkId::new("open", shards), &path, |b, path| {
            b.iter(|| {
                ShardedIndex::<u64>::open(path)
                    .expect("opens")
                    .num_edge_events()
            });
        });
        let _ = std::fs::remove_file(&path);
    }
    group.finish();
}

fn bench_foremost_tree(c: &mut Criterion) {
    let g = graph();
    let index = TvgIndex::compile(&g, HORIZON);
    let (mapped, path) = file_twin(&index, "tree");
    let limits = SearchLimits::new(HORIZON, 32);
    let src = NodeId::from_index(0);
    let mut group = c.benchmark_group("mmap_query_foremost_tree");
    group.sample_size(10);
    for (plabel, policy) in [
        ("nowait", WaitingPolicy::NoWait),
        ("bounded3", WaitingPolicy::Bounded(3)),
        ("unbounded", WaitingPolicy::Unbounded),
    ] {
        // Equality before timing: identical arrivals at every node.
        let on_compiled = foremost_tree(&index, src, &0u64, &policy, &limits);
        let on_mapped = foremost_tree(&mapped, src, &0u64, &policy, &limits);
        for d in 0..NODES {
            let node = NodeId::from_index(d);
            assert_eq!(
                on_compiled.arrival(node),
                on_mapped.arrival(node),
                "{plabel}: arrival at {node} diverges between index forms"
            );
        }
        group.bench_with_input(
            BenchmarkId::new("compiled", plabel),
            &policy,
            |b, policy| {
                b.iter(|| foremost_tree(&index, src, &0u64, policy, &limits).num_reached());
            },
        );
        group.bench_with_input(BenchmarkId::new("mapped", plabel), &policy, |b, policy| {
            b.iter(|| foremost_tree(&mapped, src, &0u64, policy, &limits).num_reached());
        });
    }
    group.finish();
    let _ = std::fs::remove_file(&path);
}

/// Structural traversal: adjacency list, destination, and monotone flag
/// of every edge out of every node, summed so nothing is dead code.
fn scan<T, I>(index: &I, nodes: usize) -> usize
where
    T: tvg_model::Time,
    I: TemporalIndex<T>,
{
    let mut acc = 0usize;
    for n in 0..nodes {
        for &e in index.out_edges(NodeId::from_index(n)) {
            acc += index.dst(e).index();
            acc += usize::from(index.arrival_is_monotone(e));
        }
    }
    acc
}

fn bench_scan(c: &mut Criterion) {
    let g = graph();
    let index = TvgIndex::compile(&g, HORIZON);
    let (mapped, path) = file_twin(&index, "scan");
    assert_eq!(
        scan(&index, NODES),
        scan(&mapped, NODES),
        "structural scan diverges between index forms"
    );
    let mut group = c.benchmark_group("mmap_query_scan");
    group.sample_size(10);
    group.bench_function("compiled", |b| b.iter(|| scan(&index, NODES)));
    group.bench_function("mapped", |b| b.iter(|| scan(&mapped, NODES)));
    group.finish();
    let _ = std::fs::remove_file(&path);
}

criterion_group!(benches, bench_serialize, bench_foremost_tree, bench_scan);
criterion_main!(benches);
