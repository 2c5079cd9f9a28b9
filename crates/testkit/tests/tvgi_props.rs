//! The `.tvgi` on-disk index gates.
//!
//! Two families of properties:
//!
//! 1. **Round-trip fidelity** — the bundled batch scenarios, run
//!    through `compile_index` + `run_with_index` at shard counts 1, 2,
//!    and 4, must reproduce `Scenario::run`'s canonical report bytes
//!    exactly, under all three waiting policies; and the engine-level
//!    oracle (`tvgicheck`) pins arrivals, witnesses, and stats
//!    bit-identical on generated graphs.
//! 2. **Failure modes** — every way a file can be wrong (truncated,
//!    foreign magic, retired or future version, a retired section id,
//!    overlapping or misaligned section table, any single flipped
//!    byte) is a typed [`TvgiError`], never a panic and never a
//!    silently-wrong index.

use tvg_journeys::WaitingPolicy;
use tvg_model::generators::scale_free_temporal;
use tvg_model::tvgi::{peek_tvgi, write_tvgi, ShardedIndex, TvgiError, MAGIC, VERSION};
use tvg_model::{narrow_tvg, TvgIndex};
use tvg_scenarios::{compile_index, parse_specs, run_with_index, IndexFileError, Plan};
use tvg_testkit::tvgicheck::{assert_tvgi_round_trip, scratch_path};

/// The three policy archetypes of the paper, in the `u64` domain.
fn policies() -> [WaitingPolicy<u64>; 3] {
    [
        WaitingPolicy::NoWait,
        WaitingPolicy::Bounded(3),
        WaitingPolicy::Unbounded,
    ]
}

// ---------------------------------------------------------------------
// Round-trip fidelity
// ---------------------------------------------------------------------

#[test]
fn generated_graphs_round_trip_at_every_shard_count() {
    let g = scale_free_temporal(50, 40, 11);
    for shards in [1, 2, 4] {
        assert_tvgi_round_trip(&g, 40, shards, &policies(), "sf50");
    }
}

#[test]
fn narrowed_graphs_round_trip_in_the_u32_domain() {
    let g = scale_free_temporal(30, 24, 5);
    let narrowed = narrow_tvg(&g, 24).expect("small horizons narrow");
    let narrowed_policies = [
        WaitingPolicy::NoWait,
        WaitingPolicy::Bounded(3u32),
        WaitingPolicy::Unbounded,
    ];
    for shards in [1, 2, 4] {
        assert_tvgi_round_trip(&narrowed, 24u32, shards, &narrowed_policies, "sf30-u32");
    }
}

/// The acceptance oracle: every bundled batch-plan scenario, swept
/// across the three policies, reports byte-identically from a `.tvgi`
/// at shard counts 1, 2, and 4.
#[test]
fn bundled_batch_scenarios_report_identically_from_tvgi() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut covered = 0usize;
    for entry in std::fs::read_dir(&dir).expect("bundled scenario dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "tvgs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("spec reads");
        for scenario in parse_specs(&text).expect("bundled specs are valid") {
            if matches!(scenario.plan(), Plan::Streaming { .. } | Plan::Serve { .. }) {
                continue;
            }
            let direct = scenario.run().canonical_json();
            for shards in [1u32, 2, 4] {
                let file = scratch_path(&format!("{}-s{shards}", scenario.name()));
                compile_index(&scenario, shards, &file).expect("batch scenarios compile");
                let mapped = run_with_index(&scenario, &file)
                    .expect("compiled file runs")
                    .canonical_json();
                assert_eq!(
                    mapped,
                    direct,
                    "{}: report from .tvgi at {shards} shards diverges",
                    scenario.name()
                );
                let _ = std::fs::remove_file(&file);
            }
            covered += 1;
        }
    }
    assert!(
        covered >= 5,
        "the bundle should hold at least five batch scenarios (got {covered})"
    );
}

#[test]
fn feed_defined_plans_are_refused_typed() {
    let spec = "\
scenario s
generator ring_bus n=4 period=4
policy nowait
plan streaming src=0 horizon=16 batch=4
";
    let scenario = parse_specs(spec).expect("valid spec").remove(0);
    let file = scratch_path("streaming-refused");
    assert_eq!(
        compile_index(&scenario, 1, &file),
        Err(IndexFileError::UnsupportedPlan { plan: "streaming" })
    );
    assert_eq!(
        run_with_index(&scenario, &file),
        Err(IndexFileError::UnsupportedPlan { plan: "streaming" })
    );
}

#[test]
fn a_file_compiled_for_another_workload_is_refused() {
    let specs = |n: u64| {
        format!(
            "scenario s\ngenerator ring_bus n=4 period=4\npolicy nowait\nplan matrix horizon={n}\n"
        )
    };
    let a = parse_specs(&specs(16)).expect("valid").remove(0);
    let b = parse_specs(&specs(32)).expect("valid").remove(0);
    let file = scratch_path("workload-mismatch");
    compile_index(&a, 2, &file).expect("compiles");
    assert_eq!(
        run_with_index(&b, &file),
        Err(IndexFileError::SpecMismatch {
            scenario: "s".to_string()
        })
    );
    let _ = std::fs::remove_file(&file);
}

// ---------------------------------------------------------------------
// Failure modes: every corruption is a typed error, never a panic
// ---------------------------------------------------------------------

/// Writes a small valid `.tvgi` and returns its bytes.
fn valid_file(label: &str) -> (std::path::PathBuf, Vec<u8>) {
    let g = scale_free_temporal(12, 20, 3);
    let index = TvgIndex::compile(&g, 20u64);
    let path = scratch_path(label);
    write_tvgi(&index, 3, Some("spec text"), &path).expect("writes");
    let bytes = std::fs::read(&path).expect("reads back");
    (path, bytes)
}

/// FNV-1a 64 over everything except the checksum field at [16, 24) —
/// the same whole-file checksum the format uses, so a test can patch
/// payload bytes and re-seal the file.
fn reseal(bytes: &mut [u8]) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut upd = |chunk: &[u8]| {
        for &b in chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    upd(&bytes[0..16]);
    upd(&bytes[24..]);
    bytes[16..24].copy_from_slice(&h.to_le_bytes());
}

fn open_bytes(label: &str, bytes: &[u8]) -> Result<ShardedIndex<u64>, TvgiError> {
    let path = scratch_path(label);
    std::fs::write(&path, bytes).expect("scratch write");
    let out = ShardedIndex::<u64>::open(&path);
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn truncation_at_every_boundary_is_typed() {
    let (path, bytes) = valid_file("truncate");
    let _ = std::fs::remove_file(&path);
    // The empty file, a partial header, a partial section table, and a
    // partial payload: every prefix is an error, never a panic.
    for cut in [0, 7, 23, 24, 40, bytes.len() / 2, bytes.len() - 1] {
        let err = open_bytes("truncate-cut", &bytes[..cut]).expect_err("prefix must fail");
        assert!(
            matches!(
                err,
                TvgiError::Truncated
                    | TvgiError::SectionOutOfBounds(_)
                    | TvgiError::ChecksumMismatch
            ),
            "cut at {cut}: unexpected error {err:?}"
        );
    }
}

#[test]
fn foreign_magic_and_future_version_are_typed() {
    let (path, bytes) = valid_file("header");
    let _ = std::fs::remove_file(&path);

    let mut wrong_magic = bytes.clone();
    wrong_magic[0..4].copy_from_slice(b"ELF\x7f");
    assert_eq!(
        open_bytes("bad-magic", &wrong_magic).expect_err("must fail"),
        TvgiError::BadMagic
    );
    assert_eq!(MAGIC, *b"TVGI");

    let mut future = bytes.clone();
    future[4..6].copy_from_slice(&(VERSION + 1).to_le_bytes());
    assert_eq!(
        open_bytes("bad-version", &future).expect_err("must fail"),
        TvgiError::UnsupportedVersion(VERSION + 1)
    );

    // Opening a u64 file as u32 (and vice versa) is the typed width
    // error, and peek reports the true width for dispatch.
    let path = scratch_path("width");
    std::fs::write(&path, &bytes).expect("scratch write");
    assert_eq!(peek_tvgi(&path).expect("valid header").width, 8);
    assert_eq!(
        ShardedIndex::<u32>::open(&path).expect_err("wrong domain"),
        TvgiError::BadWidth {
            found: 8,
            expected: 4
        }
    );
    let _ = std::fs::remove_file(&path);
}

/// Version 1 stored the edge-event timeline; version 2 derives it from
/// the spans and keeps no version-1 reader.
#[test]
fn a_version_1_header_is_refused() {
    let (path, mut bytes) = valid_file("v1");
    let _ = std::fs::remove_file(&path);
    assert_eq!(VERSION, 2);
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    reseal(&mut bytes);
    assert_eq!(
        open_bytes("v1-open", &bytes).expect_err("must fail"),
        TvgiError::UnsupportedVersion(1)
    );
    let path = scratch_path("v1-peek");
    std::fs::write(&path, &bytes).expect("scratch write");
    assert_eq!(
        peek_tvgi(&path).expect_err("must fail"),
        TvgiError::UnsupportedVersion(1)
    );
    let _ = std::fs::remove_file(&path);
}

/// Section ids 11 and 12 held the version-1 timeline (`EVENT_TIME`,
/// `EVENT_EDGE`). A resealed version-2 file that still carries one —
/// here the `SPEC` entry (id 4) retagged — is refused by name, not
/// read or skipped.
#[test]
fn a_resealed_retired_event_section_is_refused() {
    let (path, bytes) = valid_file("retired");
    let _ = std::fs::remove_file(&path);
    let n_sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let spec_entry = (0..n_sections)
        .map(|i| 24 + 24 * i)
        .find(|&at| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) == 4)
        .expect("SPEC is in the table");
    for retired in [11u32, 12] {
        let mut forged = bytes.clone();
        forged[spec_entry..spec_entry + 4].copy_from_slice(&retired.to_le_bytes());
        reseal(&mut forged);
        assert_eq!(
            open_bytes("retired-open", &forged).expect_err("must fail"),
            TvgiError::Inconsistent("unknown section id"),
            "section id {retired}"
        );
    }
}

/// Section-table entries live at `24 + 24·i`; offset is at +8, len at
/// +16 within an entry.
fn entry_field(bytes: &mut [u8], entry: usize, field_off: usize) -> &mut [u8] {
    let at = 24 + 24 * entry + field_off;
    &mut bytes[at..at + 8]
}

#[test]
fn overlapping_sections_are_typed() {
    let (path, mut bytes) = valid_file("overlap");
    let _ = std::fs::remove_file(&path);
    // Point entry 1's offset at entry 0's payload: a structural
    // overlap, caught before any decode (no reseal needed — the table
    // is validated before the checksum pass).
    let first_off = u64::from_le_bytes(entry_field(&mut bytes, 0, 8).try_into().unwrap());
    entry_field(&mut bytes, 1, 8).copy_from_slice(&first_off.to_le_bytes());
    let err = open_bytes("overlap-open", &bytes).expect_err("must fail");
    assert!(
        matches!(err, TvgiError::SectionOverlap(..)),
        "unexpected error {err:?}"
    );
}

#[test]
fn misaligned_sections_are_typed() {
    let (path, mut bytes) = valid_file("misalign");
    let _ = std::fs::remove_file(&path);
    let off = u64::from_le_bytes(entry_field(&mut bytes, 0, 8).try_into().unwrap());
    entry_field(&mut bytes, 0, 8).copy_from_slice(&(off + 1).to_le_bytes());
    let err = open_bytes("misalign-open", &bytes).expect_err("must fail");
    assert!(
        matches!(err, TvgiError::Misaligned(_)),
        "unexpected error {err:?}"
    );
}

/// The sweep: flip one byte at a time across the whole file (stepping
/// through every region — header, table, payload) and open it. Every
/// flip must surface as a typed error; none may open successfully,
/// because the checksum covers everything except its own field, and a
/// flipped checksum byte makes the stored and computed sums disagree.
#[test]
fn single_byte_corruption_never_opens_and_never_panics() {
    let (path, bytes) = valid_file("sweep");
    let _ = std::fs::remove_file(&path);
    // Step 7 keeps the sweep fast while visiting every section and
    // every byte-within-word position; the first 64 bytes (header +
    // first table entries) are swept exhaustively.
    let positions = (0..bytes.len().min(64)).chain((64..bytes.len()).step_by(7));
    for at in positions {
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0x01;
        let err = open_bytes("sweep-open", &corrupt)
            .err()
            .unwrap_or_else(|| panic!("flip at byte {at} opened successfully"));
        // Which typed error depends on the region hit; the contract is
        // "typed, not panic, not silence".
        let _ = err;
    }
}

/// Byte range `(offset, len)` of section `id` of `shard` (`u32::MAX`
/// for a global section), read from the section table.
fn find_section(bytes: &[u8], id: u32, shard: u32) -> (usize, usize) {
    let n_sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    (0..n_sections)
        .map(|i| 24 + 24 * i)
        .find(|&at| {
            u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) == id
                && u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap()) == shard
        })
        .map(|at| {
            let off = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap()) as usize;
            (off, len)
        })
        .unwrap_or_else(|| panic!("section {id} of shard {shard} present"))
}

/// The little-endian `u32` words of section `id` of `shard`.
fn u32_words(bytes: &[u8], id: u32, shard: u32) -> Vec<u32> {
    let (off, len) = find_section(bytes, id, shard);
    bytes[off..off + len]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

fn assert_inconsistent(label: &str, forged: &[u8]) {
    let err = open_bytes(label, forged).expect_err("a forged file must not open");
    assert!(
        matches!(err, TvgiError::Inconsistent(_)),
        "{label}: unexpected error {err:?}"
    );
}

#[test]
fn resealed_payload_corruption_is_caught_by_consistency_checks() {
    let (path, bytes) = valid_file("reseal");
    let _ = std::fs::remove_file(&path);
    // Zero out the SHARD_RANGES partition end and reseal the checksum:
    // the checksum now passes, so the cross-section consistency layer
    // must catch the lie.
    let mut forged = bytes.clone();
    let (off, len) = find_section(&forged, 10, u32::MAX);
    forged[off + len - 4..off + len].copy_from_slice(&0u32.to_le_bytes());
    reseal(&mut forged);
    assert_inconsistent("reseal-open", &forged);
}

#[test]
fn resealed_edge_directory_sharing_a_span_list_is_refused() {
    let (path, bytes) = valid_file("reseal-local");
    let _ = std::fs::remove_file(&path);
    // Point edge `f`'s EDGE_LOCAL (id 6) at edge `e`'s CSR slot in the
    // same shard. Every word stays in range, but `f` would answer with
    // `e`'s span list.
    let edge_shard = u32_words(&bytes, 5, u32::MAX);
    let edge_local = u32_words(&bytes, 6, u32::MAX);
    let f = (1..edge_shard.len())
        .find(|&f| edge_shard[f] == edge_shard[0])
        .expect("two edges share shard 0's owner");
    let mut forged = bytes.clone();
    let (off, _) = find_section(&forged, 6, u32::MAX);
    forged[off + 4 * f..off + 4 * f + 4].copy_from_slice(&edge_local[0].to_le_bytes());
    reseal(&mut forged);
    assert_inconsistent("reseal-local-open", &forged);
}

#[test]
fn resealed_unsorted_spans_are_refused() {
    let (path, bytes) = valid_file("reseal-spans");
    let _ = std::fs::remove_file(&path);
    // Swap the first two spans of an edge that has at least two, in
    // its shard's SPANS (id 16; 8-byte words, two per span). The words
    // stay in range and the count stays right, but binary searches over
    // the unsorted list would miss present instants.
    let (shard, first) = (0..3u32)
        .find_map(|s| {
            let (off, len) = find_section(&bytes, 15, s);
            let span_off: Vec<u64> = bytes[off..off + len]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            span_off
                .windows(2)
                .find(|w| w[1] - w[0] >= 2)
                .map(|w| (s, w[0] as usize))
        })
        .expect("some edge has two spans");
    let mut forged = bytes.clone();
    let (off, _) = find_section(&forged, 16, shard);
    let at = off + 16 * first;
    let (a, b) = forged[at..at + 32].split_at(16);
    let swapped = [b, a].concat();
    forged[at..at + 32].copy_from_slice(&swapped);
    reseal(&mut forged);
    assert_inconsistent("reseal-spans-open", &forged);
}
