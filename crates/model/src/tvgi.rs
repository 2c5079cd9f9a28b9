//! The on-disk index: a compiled schedule persisted as a `.tvgi` file.
//!
//! [`TvgIndex::compile`] pays the full materialization cost — presence
//! spans and CSR adjacency — every time a process
//! starts. This module makes that cost a *build step*: [`write_tvgi`]
//! serializes a compiled index into a versioned, little-endian,
//! section-table binary format, and [`ShardedIndex::open`] gives it
//! back as a read-only [`TemporalIndex`] whose accessors borrow plain
//! slices of its decoded arenas, so an index compiles once and any
//! number of processes query it without recompiling.
//!
//! # Format (version 2)
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ header (24 B): magic "TVGI" · version u16 · width u8 (4|8)   │
//! │   · reserved u8 · shards u32 · sections u32 · checksum u64   │
//! ├──────────────────────────────────────────────────────────────┤
//! │ section table: sections × (id u32 · shard u32 ·              │
//! │   offset u64 · len u64)   — offsets 8-byte aligned           │
//! ├──────────────────────────────────────────────────────────────┤
//! │ global sections: META (nodes · edges · horizon · shards) ·   │
//! │   NAMES_OFF/NAMES_BYTES · SPEC · EDGE_SHARD/EDGE_LOCAL/      │
//! │   EDGE_DST/EDGE_MONO/EDGE_LAT · SHARD_RANGES                 │
//! ├──────────────────────────────────────────────────────────────┤
//! │ shard 0: CSR_OFF · CSR_EDGES · SPAN_OFF · SPANS · BOUNDARY   │
//! │ shard 1: …                                  (× shards)       │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Version 1 also stored the global edge-event timeline (section ids
//! 11 and 12, plus an event-count word in `META`). That timeline is a
//! function of the spans, so version 2 drops it; those ids are retired
//! and a file carrying them is refused, as is a version-1 file.
//!
//! Every multi-byte value is little-endian. *Time-valued* sections
//! (`SPANS`, `EDGE_LAT`, the horizon word of `META`)
//! store `width`-byte words — 4 when the index was compiled in the
//! [`narrow_tvg`](crate::narrow_tvg)-compressed `u32` domain, 8 for
//! native `u64` times — so narrowing halves the hot sections on disk
//! exactly as it halves them in memory. The `checksum` is FNV-1a 64
//! over the whole file except the checksum field itself, so any
//! one-byte corruption is either a typed structural error or a
//! [`TvgiError::ChecksumMismatch`], never a panic or a wrong answer.
//!
//! # Sharding
//!
//! `--shards k` splits the node range into `k` balanced contiguous
//! ranges at write time. An edge belongs to its source's shard; each
//! shard carries its own CSR and interval store, plus a boundary
//! summary (the sorted set of shards its edges cross into). Edge ids
//! stay *global*, which is what keeps a [`ShardedIndex`] bit-identical
//! to the in-memory index — same witness journeys, same engine stats —
//! at every shard count. The boundary summaries power
//! [`ShardedIndex::reachable_shards`], the planning step that lets a
//! consumer descend into only the shards a source can ever reach.
//!
//! # Decoded arenas, not a mapping
//!
//! The workspace forbids `unsafe`, so the reader does not `mmap(2)`:
//! [`ShardedIndex::open`] makes one buffered sequential pass that
//! decodes each section, through a read buffer of at most 1 MiB,
//! straight into the shape the [`TemporalIndex`] trait hands out: CSR
//! words become a `Vec<EdgeId>`, interleaved span words a
//! `Vec<(T, T)>`. Every query after that borrows a plain slice, exactly
//! as it would from a [`TvgIndex`], with no per-query layout
//! conversion. Before returning, open proves what those slices promise:
//! every edge id is in range, every edge owns exactly its own CSR slot
//! (so no two edges share a span list), and every span list is sorted,
//! non-empty, disjoint and non-adjacent. The price of a
//! `#![forbid(unsafe_code)]` workspace is one up-front copy, decoded
//! once.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::index::{TemporalIndex, TvgIndex};
use crate::interval::SpanView;
use crate::{EdgeId, Latency, NodeId, Time};

/// Magic bytes opening every `.tvgi` file.
pub const MAGIC: [u8; 4] = *b"TVGI";

/// The format version this build writes and reads.
pub const VERSION: u16 = 2;

/// Fixed header length in bytes.
const HEADER_LEN: u64 = 24;

/// Byte length of one section-table entry.
const TABLE_ENTRY_LEN: u64 = 24;

/// The `shard` field of a global (non-sharded) section.
const GLOBAL: u32 = u32::MAX;

/// FNV-1a 64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

mod section {
    //! Section identifiers of format version 2 (ids 11 and 12 held the
    //! version-1 event timeline and are retired).
    pub const META: u32 = 1;
    pub const NAMES_OFF: u32 = 2;
    pub const NAMES_BYTES: u32 = 3;
    pub const SPEC: u32 = 4;
    pub const EDGE_SHARD: u32 = 5;
    pub const EDGE_LOCAL: u32 = 6;
    pub const EDGE_DST: u32 = 7;
    pub const EDGE_MONO: u32 = 8;
    pub const EDGE_LAT: u32 = 9;
    pub const SHARD_RANGES: u32 = 10;
    pub const CSR_OFF: u32 = 13;
    pub const CSR_EDGES: u32 = 14;
    pub const SPAN_OFF: u32 = 15;
    pub const SPANS: u32 = 16;
    pub const BOUNDARY: u32 = 17;
}

/// Number of `u64` words in the `META` section.
const META_WORDS: usize = 4;

/// Everything that can go wrong opening, validating, or writing a
/// `.tvgi` file. Every failure mode is a typed variant — a corrupt or
/// truncated file must never panic the reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TvgiError {
    /// An underlying filesystem error (message carried verbatim).
    Io(String),
    /// The file ends before a structure it promised (header, section
    /// table, or section payload).
    Truncated,
    /// The file does not start with the `TVGI` magic.
    BadMagic,
    /// The file's format version is not [`VERSION`].
    UnsupportedVersion(u16),
    /// The time width is not 4 or 8, or does not match the time domain
    /// the caller asked to open the file under.
    BadWidth {
        /// Width recorded in the file header.
        found: u8,
        /// Width of the requested time domain.
        expected: u8,
    },
    /// Two sections overlap in the byte range they claim.
    SectionOverlap(u32, u32),
    /// A section's offset or length is not a multiple of its element
    /// width.
    Misaligned(u32),
    /// A section extends beyond the end of the file or into the header.
    SectionOutOfBounds(u32),
    /// A required section is absent.
    MissingSection(u32),
    /// The same `(id, shard)` section appears twice.
    DuplicateSection(u32),
    /// The whole-file checksum does not match the header.
    ChecksumMismatch,
    /// Structurally well-formed but self-contradictory content (counts
    /// that disagree, offsets that are not monotone, ids out of range).
    Inconsistent(&'static str),
    /// The index uses a non-constant latency on some edge; the format
    /// only persists constant latencies.
    UnsupportedLatency(EdgeId),
}

impl std::fmt::Display for TvgiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TvgiError::Io(e) => write!(f, "tvgi i/o error: {e}"),
            TvgiError::Truncated => write!(f, "tvgi file is truncated"),
            TvgiError::BadMagic => write!(f, "not a tvgi file (bad magic)"),
            TvgiError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported tvgi version {v} (this build reads {VERSION})"
                )
            }
            TvgiError::BadWidth { found, expected } => {
                write!(
                    f,
                    "time width {found} does not match requested width {expected}"
                )
            }
            TvgiError::SectionOverlap(a, b) => write!(f, "sections {a} and {b} overlap"),
            TvgiError::Misaligned(id) => write!(f, "section {id} is misaligned"),
            TvgiError::SectionOutOfBounds(id) => {
                write!(f, "section {id} extends beyond the file")
            }
            TvgiError::MissingSection(id) => write!(f, "required section {id} is missing"),
            TvgiError::DuplicateSection(id) => write!(f, "section {id} appears twice"),
            TvgiError::ChecksumMismatch => write!(f, "tvgi checksum mismatch (corrupt file)"),
            TvgiError::Inconsistent(what) => write!(f, "inconsistent tvgi content: {what}"),
            TvgiError::UnsupportedLatency(e) => {
                write!(
                    f,
                    "edge {e} has a non-constant latency; tvgi stores constants only"
                )
            }
        }
    }
}

impl std::error::Error for TvgiError {}

impl From<std::io::Error> for TvgiError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TvgiError::Truncated
        } else {
            TvgiError::Io(e.to_string())
        }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// The machine-word time domains a `.tvgi` file can store: `u64`
/// (native simulation times) and `u32` (the
/// [`narrow_tvg`](crate::narrow_tvg)-compressed domain). Sealed — the
/// format has exactly two widths.
pub trait TvgiTime: Time + Copy + sealed::Sealed {
    /// Bytes per stored time word (4 or 8).
    const WIDTH: u8;

    /// Widens to the transport word.
    fn to_word(self) -> u64;

    /// Narrows from the transport word, `None` if it does not fit.
    fn from_word(w: u64) -> Option<Self>;
}

impl TvgiTime for u32 {
    const WIDTH: u8 = 4;

    fn to_word(self) -> u64 {
        u64::from(self)
    }

    fn from_word(w: u64) -> Option<Self> {
        u32::try_from(w).ok()
    }
}

impl TvgiTime for u64 {
    const WIDTH: u8 = 8;

    fn to_word(self) -> u64 {
        self
    }

    fn from_word(w: u64) -> Option<Self> {
        Some(w)
    }
}

/// A streaming FNV-1a 64 hasher (the format's whole-file checksum).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Element width in bytes of a section's words, given the file's time
/// width. `1` means raw bytes (no alignment constraint beyond the
/// table's 8-byte offsets).
fn elem_width(id: u32, time_width: u8) -> u64 {
    match id {
        section::META | section::NAMES_OFF | section::CSR_OFF | section::SPAN_OFF => 8,
        section::NAMES_BYTES | section::SPEC => 1,
        section::EDGE_LAT | section::SPANS => u64::from(time_width),
        _ => 4,
    }
}

/// One entry of the section table.
#[derive(Debug, Clone, Copy)]
struct Section {
    id: u32,
    shard: u32,
    offset: u64,
    len: u64,
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// What [`write_tvgi`] produced, for logs and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TvgiSummary {
    /// Total file size in bytes.
    pub bytes: u64,
    /// Shard count actually written (clamped to the node count).
    pub shards: u32,
    /// Stored time width in bytes (4 or 8).
    pub width: u8,
    /// Node count.
    pub num_nodes: usize,
    /// Edge count.
    pub num_edges: usize,
    /// Total presence spans across all shards.
    pub num_spans: usize,
}

/// Balanced contiguous node ranges: `k` shards over `n` nodes, sizes
/// differing by at most one. Returns the `k + 1` boundary array.
fn shard_ranges(n: usize, k: u32) -> Vec<u32> {
    let k = k as usize;
    let base = n / k;
    let rem = n % k;
    let mut ranges = Vec::with_capacity(k + 1);
    let mut at = 0usize;
    ranges.push(0u32);
    for i in 0..k {
        at += base + usize::from(i < rem);
        ranges.push(u32::try_from(at).expect("node count fits in u32"));
    }
    ranges
}

/// Serializes a compiled index into `path` as a `.tvgi` file with
/// `shards` node-range shards (clamped to `[1, num_nodes]`), embedding
/// `spec` (the canonical scenario text, if any) for provenance checks
/// at open time.
///
/// # Errors
///
/// [`TvgiError::UnsupportedLatency`] if any edge's latency is not
/// [`Latency::Const`] (the format persists constant latencies only —
/// every built-in generator emits them), or [`TvgiError::Io`] on a
/// filesystem failure.
pub fn write_tvgi<T: TvgiTime>(
    index: &TvgIndex<'_, T>,
    shards: u32,
    spec: Option<&str>,
    path: &Path,
) -> Result<TvgiSummary, TvgiError> {
    let g = index.tvg();
    let n = g.num_nodes();
    let m = g.num_edges();
    let k = shards.clamp(1, u32::try_from(n.max(1)).unwrap_or(u32::MAX));

    // Per-edge constant latencies — the one schedule feature the format
    // needs from the AST. Anything fancier must stay on the compile-per-run
    // path.
    let mut edge_lat: Vec<u64> = Vec::with_capacity(m);
    for e in g.edges() {
        match g.edge(e).latency() {
            Latency::Const(c) => edge_lat.push(c.to_word()),
            _ => return Err(TvgiError::UnsupportedLatency(e)),
        }
    }

    let ranges = shard_ranges(n, k);
    let shard_of_node = |node: usize| -> u32 {
        let s = ranges.partition_point(|&r| r as usize <= node);
        u32::try_from(s - 1).expect("shard fits in u32")
    };

    // Edge directory: owning shard (= src's shard) and local slot, in
    // shard-CSR order so SPAN_OFF is a plain prefix sum.
    let mut edge_shard = vec![0u32; m];
    let mut edge_local = vec![0u32; m];
    let mut num_spans = 0usize;

    struct ShardBuf {
        csr_off: Vec<u64>,
        csr_edges: Vec<u32>,
        span_off: Vec<u64>,
        spans: Vec<u64>,
        boundary: BTreeSet<u32>,
    }
    let mut shard_bufs: Vec<ShardBuf> = Vec::with_capacity(k as usize);
    for s in 0..k as usize {
        let (lo, hi) = (ranges[s] as usize, ranges[s + 1] as usize);
        let mut buf = ShardBuf {
            csr_off: Vec::with_capacity(hi - lo + 1),
            csr_edges: Vec::new(),
            span_off: Vec::new(),
            spans: Vec::new(),
            boundary: BTreeSet::new(),
        };
        buf.csr_off.push(0);
        buf.span_off.push(0);
        let mut local = 0u32;
        for node in lo..hi {
            for &e in index.out_edges(NodeId::from_index(node)) {
                let ei = e.index();
                edge_shard[ei] = u32::try_from(s).expect("shard fits in u32");
                edge_local[ei] = local;
                local += 1;
                buf.csr_edges
                    .push(u32::try_from(ei).expect("edge index fits in u32"));
                for (start, end) in index.presence(e).spans() {
                    buf.spans.push(start.to_word());
                    buf.spans.push(end.to_word());
                }
                buf.span_off.push(buf.spans.len() as u64 / 2);
                let dst_shard = shard_of_node(g.edge(e).dst().index());
                if dst_shard as usize != s {
                    buf.boundary.insert(dst_shard);
                }
            }
            buf.csr_off.push(buf.csr_edges.len() as u64);
        }
        num_spans += buf.spans.len() / 2;
        shard_bufs.push(buf);
    }

    // Node names.
    let mut names_off: Vec<u64> = Vec::with_capacity(n + 1);
    let mut names_bytes: Vec<u8> = Vec::new();
    names_off.push(0);
    for node in g.nodes() {
        names_bytes.extend_from_slice(g.node_name(node).as_bytes());
        names_off.push(names_bytes.len() as u64);
    }

    let spec_bytes = spec.unwrap_or("").as_bytes().to_vec();
    let horizon = index.horizon().to_word();
    let meta: Vec<u64> = vec![n as u64, m as u64, horizon, u64::from(k)];

    // Assemble the payload plan: (id, shard, bytes).
    let width = T::WIDTH;
    let time_bytes = |words: &[u64]| -> Vec<u8> {
        let mut out = Vec::with_capacity(words.len() * width as usize);
        for &w in words {
            out.extend_from_slice(&w.to_le_bytes()[..width as usize]);
        }
        out
    };
    let u64_bytes = |words: &[u64]| -> Vec<u8> {
        let mut out = Vec::with_capacity(words.len() * 8);
        for &w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    };
    let u32_bytes = |words: &[u32]| -> Vec<u8> {
        let mut out = Vec::with_capacity(words.len() * 4);
        for &w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    };

    let mut payloads: Vec<(u32, u32, Vec<u8>)> = vec![
        (section::META, GLOBAL, u64_bytes(&meta)),
        (section::NAMES_OFF, GLOBAL, u64_bytes(&names_off)),
        (section::NAMES_BYTES, GLOBAL, names_bytes),
        (section::SPEC, GLOBAL, spec_bytes),
        (section::EDGE_SHARD, GLOBAL, u32_bytes(&edge_shard)),
        (section::EDGE_LOCAL, GLOBAL, u32_bytes(&edge_local)),
        (
            section::EDGE_DST,
            GLOBAL,
            u32_bytes(
                &g.edges()
                    .map(|e| u32::try_from(g.edge(e).dst().index()).expect("node fits in u32"))
                    .collect::<Vec<u32>>(),
            ),
        ),
        (
            section::EDGE_MONO,
            GLOBAL,
            u32_bytes(
                &g.edges()
                    .map(|e| u32::from(index.arrival_is_monotone(e)))
                    .collect::<Vec<u32>>(),
            ),
        ),
        (section::EDGE_LAT, GLOBAL, time_bytes(&edge_lat)),
        (section::SHARD_RANGES, GLOBAL, u32_bytes(&ranges)),
    ];
    for (s, buf) in shard_bufs.into_iter().enumerate() {
        let s = u32::try_from(s).expect("shard fits in u32");
        payloads.push((section::CSR_OFF, s, u64_bytes(&buf.csr_off)));
        payloads.push((section::CSR_EDGES, s, u32_bytes(&buf.csr_edges)));
        payloads.push((section::SPAN_OFF, s, u64_bytes(&buf.span_off)));
        payloads.push((section::SPANS, s, time_bytes(&buf.spans)));
        payloads.push((
            section::BOUNDARY,
            s,
            u32_bytes(&buf.boundary.into_iter().collect::<Vec<u32>>()),
        ));
    }

    // Lay out sections after the table, each 8-byte aligned.
    let table_len = TABLE_ENTRY_LEN * payloads.len() as u64;
    let mut offset = HEADER_LEN + table_len;
    offset = offset.next_multiple_of(8);
    let mut table: Vec<Section> = Vec::with_capacity(payloads.len());
    for (id, shard, bytes) in &payloads {
        table.push(Section {
            id: *id,
            shard: *shard,
            offset,
            len: bytes.len() as u64,
        });
        offset = (offset + bytes.len() as u64).next_multiple_of(8);
    }
    let file_len = offset;

    // Header with a zero checksum placeholder, then table, then
    // payload — hashing everything but the checksum field as we go —
    // then seek back and patch the real checksum in.
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    let mut fnv = Fnv::new();
    let mut head = Vec::with_capacity(HEADER_LEN as usize);
    head.extend_from_slice(&MAGIC);
    head.extend_from_slice(&VERSION.to_le_bytes());
    head.push(width);
    head.push(0);
    head.extend_from_slice(&k.to_le_bytes());
    head.extend_from_slice(
        &u32::try_from(payloads.len())
            .expect("few sections")
            .to_le_bytes(),
    );
    fnv.update(&head);
    head.extend_from_slice(&0u64.to_le_bytes());
    w.write_all(&head)?;

    fn emit(
        w: &mut BufWriter<File>,
        fnv: &mut Fnv,
        written: &mut u64,
        bytes: &[u8],
    ) -> Result<(), TvgiError> {
        fnv.update(bytes);
        w.write_all(bytes)?;
        *written += bytes.len() as u64;
        Ok(())
    }
    let mut written = HEADER_LEN;
    for sec in &table {
        let mut entry = Vec::with_capacity(TABLE_ENTRY_LEN as usize);
        entry.extend_from_slice(&sec.id.to_le_bytes());
        entry.extend_from_slice(&sec.shard.to_le_bytes());
        entry.extend_from_slice(&sec.offset.to_le_bytes());
        entry.extend_from_slice(&sec.len.to_le_bytes());
        emit(&mut w, &mut fnv, &mut written, &entry)?;
    }
    for (sec, (_, _, bytes)) in table.iter().zip(&payloads) {
        let pad = sec.offset - written;
        emit(&mut w, &mut fnv, &mut written, &vec![0u8; pad as usize])?;
        emit(&mut w, &mut fnv, &mut written, bytes)?;
    }
    let tail_pad = file_len - written;
    emit(
        &mut w,
        &mut fnv,
        &mut written,
        &vec![0u8; tail_pad as usize],
    )?;

    let mut file = w.into_inner().map_err(|e| TvgiError::Io(e.to_string()))?;
    file.seek(SeekFrom::Start(16))?;
    file.write_all(&fnv.finish().to_le_bytes())?;
    file.sync_all()?;

    Ok(TvgiSummary {
        bytes: file_len,
        shards: k,
        width,
        num_nodes: n,
        num_edges: m,
        num_spans,
    })
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Header facts readable without decoding the payload — what a caller
/// needs to pick the time domain before [`ShardedIndex::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TvgiInfo {
    /// Format version.
    pub version: u16,
    /// Stored time width in bytes (4 or 8).
    pub width: u8,
    /// Shard count.
    pub shards: u32,
}

/// Reads just the header of `path` (magic, version, width, shards),
/// validating magic/version/width.
///
/// # Errors
///
/// The same header-level [`TvgiError`] variants as
/// [`ShardedIndex::open`].
pub fn peek_tvgi(path: &Path) -> Result<TvgiInfo, TvgiError> {
    let mut f = File::open(path)?;
    let mut head = [0u8; HEADER_LEN as usize];
    f.read_exact(&mut head)?;
    parse_header(&head)
}

fn parse_header(head: &[u8; HEADER_LEN as usize]) -> Result<TvgiInfo, TvgiError> {
    if head[0..4] != MAGIC {
        return Err(TvgiError::BadMagic);
    }
    let version = u16::from_le_bytes([head[4], head[5]]);
    if version != VERSION {
        return Err(TvgiError::UnsupportedVersion(version));
    }
    let width = head[6];
    if width != 4 && width != 8 {
        return Err(TvgiError::BadWidth {
            found: width,
            expected: 0,
        });
    }
    if head[7] != 0 {
        return Err(TvgiError::Inconsistent("reserved header byte is set"));
    }
    let shards = u32::from_le_bytes([head[8], head[9], head[10], head[11]]);
    Ok(TvgiInfo {
        version,
        width,
        shards,
    })
}

/// One shard's decoded arenas.
#[derive(Debug)]
struct ShardData<T> {
    csr_off: Vec<u64>,
    csr_edges: Vec<EdgeId>,
    span_off: Vec<u64>,
    spans: Vec<(T, T)>,
    boundary: Vec<u32>,
}

/// A `.tvgi` file opened read-only: decoded per-shard arenas behind the
/// [`TemporalIndex`] trait.
///
/// Every accessor borrows a slice of the decoded arenas — a
/// [`SpanView`] over the shard's `(start, end)` pairs, an `&[EdgeId]`
/// over its CSR — so the engine's hot loops run on the same shapes as
/// for the in-memory indexes. Opened at shard count `k`, it answers
/// bit-identically to the [`TvgIndex`] it was written from (same
/// arrivals, same witness journeys, same engine stats): edge ids are
/// global, adjacency order is preserved, and arrivals use the same
/// checked constant-latency arithmetic.
#[derive(Debug)]
pub struct ShardedIndex<T> {
    horizon: T,
    num_nodes: usize,
    num_edges: usize,
    shard_ranges: Vec<u32>,
    edge_shard: Vec<u32>,
    edge_local: Vec<u32>,
    edge_dst: Vec<u32>,
    edge_mono: Vec<u32>,
    edge_lat: Vec<T>,
    names_off: Vec<u64>,
    names_bytes: Vec<u8>,
    spec: String,
    shards: Vec<ShardData<T>>,
}

/// Reads section `sec` from `f` through a read buffer of at most
/// 1 MiB, decoding it `width` bytes at a time. The raw bytes are never
/// held whole, so decoding needs no more memory than its output. The
/// caller guarantees `width` divides the section length (table
/// validation checks every section against its element width).
fn read_section<V>(
    f: &mut File,
    sec: &Section,
    width: usize,
    decode: impl Fn(&[u8]) -> V,
) -> Result<Vec<V>, TvgiError> {
    const BUF: u64 = 1 << 20;
    debug_assert_eq!(sec.len % width as u64, 0, "section {} width", sec.id);
    f.seek(SeekFrom::Start(sec.offset))?;
    let mut out = Vec::with_capacity((sec.len / width as u64) as usize);
    // A multiple of every width (4, 8, 16), so no word straddles a refill.
    let mut buf = vec![0u8; sec.len.min(BUF) as usize];
    let mut remaining = sec.len;
    while remaining > 0 {
        let take = remaining.min(BUF) as usize;
        f.read_exact(&mut buf[..take])?;
        out.extend(buf[..take].chunks_exact(width).map(&decode));
        remaining -= take as u64;
    }
    Ok(out)
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4-byte word"))
}

/// Decodes the little-endian time word in the first `T::WIDTH` bytes
/// of `bytes` (which always fits `T`).
fn time_word<T: TvgiTime>(bytes: &[u8]) -> T {
    let width = usize::from(T::WIDTH);
    let mut word = [0u8; 8];
    word[..width].copy_from_slice(&bytes[..width]);
    T::from_word(u64::from_le_bytes(word)).expect("a WIDTH-byte word fits its time domain")
}

fn read_words<T: TvgiTime>(f: &mut File, sec: &Section) -> Result<Vec<T>, TvgiError> {
    read_section(f, sec, usize::from(T::WIDTH), time_word)
}

fn read_u32s(f: &mut File, sec: &Section) -> Result<Vec<u32>, TvgiError> {
    read_section(f, sec, 4, le_u32)
}

fn read_u64s(f: &mut File, sec: &Section) -> Result<Vec<u64>, TvgiError> {
    read_section(f, sec, 8, |c| {
        u64::from_le_bytes(c.try_into().expect("8-byte word"))
    })
}

fn read_bytes(f: &mut File, sec: &Section) -> Result<Vec<u8>, TvgiError> {
    f.seek(SeekFrom::Start(sec.offset))?;
    let mut out = vec![0u8; usize::try_from(sec.len).map_err(|_| TvgiError::Truncated)?];
    f.read_exact(&mut out)?;
    Ok(out)
}

impl<T: TvgiTime> ShardedIndex<T> {
    /// Opens `path`, fully validating the container before decoding:
    /// magic/version/width, section-table bounds, alignment, overlap
    /// and duplicates, the whole-file checksum, then cross-section
    /// consistency. One buffered sequential pass per section; no
    /// recompilation.
    ///
    /// # Errors
    ///
    /// A [`TvgiError`] naming the first failure — a corrupt file is
    /// always a typed error, never a panic.
    pub fn open(path: &Path) -> Result<Self, TvgiError> {
        let mut f = File::open(path)?;
        let file_len = f.metadata()?.len();
        let mut head = [0u8; HEADER_LEN as usize];
        f.read_exact(&mut head)?;
        let info = parse_header(&head)?;
        if info.width != T::WIDTH {
            return Err(TvgiError::BadWidth {
                found: info.width,
                expected: T::WIDTH,
            });
        }
        let checksum = u64::from_le_bytes(head[16..24].try_into().expect("header slice"));
        let n_sections = u32::from_le_bytes(head[12..16].try_into().expect("header slice"));

        // Section table.
        let table_len = TABLE_ENTRY_LEN * u64::from(n_sections);
        if HEADER_LEN + table_len > file_len {
            return Err(TvgiError::Truncated);
        }
        let mut table = Vec::with_capacity(n_sections as usize);
        {
            let mut entry = [0u8; TABLE_ENTRY_LEN as usize];
            for _ in 0..n_sections {
                f.read_exact(&mut entry)?;
                table.push(Section {
                    id: u32::from_le_bytes(entry[0..4].try_into().expect("entry slice")),
                    shard: u32::from_le_bytes(entry[4..8].try_into().expect("entry slice")),
                    offset: u64::from_le_bytes(entry[8..16].try_into().expect("entry slice")),
                    len: u64::from_le_bytes(entry[16..24].try_into().expect("entry slice")),
                });
            }
        }

        // Structural validation before any payload decode.
        let payload_start = HEADER_LEN + table_len;
        let mut seen: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        for (i, sec) in table.iter().enumerate() {
            let known = (section::META..=section::SHARD_RANGES).contains(&sec.id)
                || (section::CSR_OFF..=section::BOUNDARY).contains(&sec.id);
            if !known {
                return Err(TvgiError::Inconsistent("unknown section id"));
            }
            let ew = elem_width(sec.id, info.width);
            if sec.offset % 8 != 0 || sec.len % ew != 0 {
                return Err(TvgiError::Misaligned(sec.id));
            }
            if sec.offset < payload_start || sec.len > file_len || sec.offset > file_len - sec.len {
                return Err(TvgiError::SectionOutOfBounds(sec.id));
            }
            if seen.insert((sec.id, sec.shard), i).is_some() {
                return Err(TvgiError::DuplicateSection(sec.id));
            }
        }
        let mut by_offset: Vec<&Section> = table.iter().collect();
        by_offset.sort_by_key(|s| s.offset);
        for pair in by_offset.windows(2) {
            if pair[0].offset + pair[0].len > pair[1].offset {
                return Err(TvgiError::SectionOverlap(pair[0].id, pair[1].id));
            }
        }

        // Whole-file checksum: everything except the checksum field.
        let mut fnv = Fnv::new();
        fnv.update(&head[0..16]);
        f.seek(SeekFrom::Start(HEADER_LEN))?;
        let mut buf = vec![0u8; 1 << 20];
        loop {
            let got = f.read(&mut buf)?;
            if got == 0 {
                break;
            }
            fnv.update(&buf[..got]);
        }
        if fnv.finish() != checksum {
            return Err(TvgiError::ChecksumMismatch);
        }

        // Decode.
        let global = |id: u32| -> Result<&Section, TvgiError> {
            seen.get(&(id, GLOBAL))
                .map(|&i| &table[i])
                .ok_or(TvgiError::MissingSection(id))
        };
        let meta_sec = *global(section::META)?;
        let meta = read_u64s(&mut f, &meta_sec)?;
        if meta.len() != META_WORDS {
            return Err(TvgiError::Inconsistent("META has the wrong word count"));
        }
        let num_nodes =
            usize::try_from(meta[0]).map_err(|_| TvgiError::Inconsistent("node count"))?;
        let num_edges =
            usize::try_from(meta[1]).map_err(|_| TvgiError::Inconsistent("edge count"))?;
        let horizon =
            T::from_word(meta[2]).ok_or(TvgiError::Inconsistent("horizon exceeds time width"))?;
        if meta[3] != u64::from(info.shards) {
            return Err(TvgiError::Inconsistent(
                "META shard count disagrees with header",
            ));
        }

        let expect_len = |sec: &Section, elems: usize, what: &'static str| {
            let ew = elem_width(sec.id, info.width);
            if sec.len == elems as u64 * ew {
                Ok(())
            } else {
                Err(TvgiError::Inconsistent(what))
            }
        };

        let sec = *global(section::SHARD_RANGES)?;
        expect_len(&sec, info.shards as usize + 1, "SHARD_RANGES length")?;
        let ranges = read_u32s(&mut f, &sec)?;
        if ranges[0] != 0
            || *ranges.last().expect("nonempty") as usize != num_nodes
            || ranges.windows(2).any(|w| w[0] > w[1])
        {
            return Err(TvgiError::Inconsistent("SHARD_RANGES not a partition"));
        }

        let sec = *global(section::EDGE_SHARD)?;
        expect_len(&sec, num_edges, "EDGE_SHARD length")?;
        let edge_shard = read_u32s(&mut f, &sec)?;
        let sec = *global(section::EDGE_LOCAL)?;
        expect_len(&sec, num_edges, "EDGE_LOCAL length")?;
        let edge_local = read_u32s(&mut f, &sec)?;
        let sec = *global(section::EDGE_DST)?;
        expect_len(&sec, num_edges, "EDGE_DST length")?;
        let edge_dst = read_u32s(&mut f, &sec)?;
        let sec = *global(section::EDGE_MONO)?;
        expect_len(&sec, num_edges, "EDGE_MONO length")?;
        let edge_mono = read_u32s(&mut f, &sec)?;
        let sec = *global(section::EDGE_LAT)?;
        expect_len(&sec, num_edges, "EDGE_LAT length")?;
        let edge_lat = read_words::<T>(&mut f, &sec)?;

        let sec = *global(section::NAMES_OFF)?;
        expect_len(&sec, num_nodes + 1, "NAMES_OFF length")?;
        let names_off = read_u64s(&mut f, &sec)?;
        let sec = *global(section::NAMES_BYTES)?;
        let names_bytes = read_bytes(&mut f, &sec)?;
        if names_off[0] != 0
            || *names_off.last().expect("nonempty") != names_bytes.len() as u64
            || names_off.windows(2).any(|w| w[0] > w[1])
        {
            return Err(TvgiError::Inconsistent(
                "NAMES_OFF not monotone over NAMES_BYTES",
            ));
        }
        let sec = *global(section::SPEC)?;
        let spec = String::from_utf8(read_bytes(&mut f, &sec)?)
            .map_err(|_| TvgiError::Inconsistent("SPEC is not UTF-8"))?;

        let mut shards = Vec::with_capacity(info.shards as usize);
        for s in 0..info.shards {
            let shard_sec = |id: u32| -> Result<Section, TvgiError> {
                seen.get(&(id, s))
                    .map(|&i| table[i])
                    .ok_or(TvgiError::MissingSection(id))
            };
            let nodes_here = (ranges[s as usize + 1] - ranges[s as usize]) as usize;
            let sec = shard_sec(section::CSR_OFF)?;
            expect_len(&sec, nodes_here + 1, "CSR_OFF length")?;
            let csr_off = read_u64s(&mut f, &sec)?;
            let sec = shard_sec(section::CSR_EDGES)?;
            let csr_edges = read_section(&mut f, &sec, 4, |c| EdgeId(le_u32(c)))?;
            let sec = shard_sec(section::SPAN_OFF)?;
            expect_len(&sec, csr_edges.len() + 1, "SPAN_OFF length")?;
            let span_off = read_u64s(&mut f, &sec)?;
            let sec = shard_sec(section::SPANS)?;
            let w = usize::from(T::WIDTH);
            if sec.len % (2 * w as u64) != 0 {
                return Err(TvgiError::Inconsistent("SPANS holds an odd word count"));
            }
            let spans = read_section(&mut f, &sec, 2 * w, |c| {
                (time_word(&c[..w]), time_word(&c[w..]))
            })?;
            let sec = shard_sec(section::BOUNDARY)?;
            let boundary = read_u32s(&mut f, &sec)?;

            if csr_off[0] != 0
                || *csr_off.last().expect("nonempty") != csr_edges.len() as u64
                || csr_off.windows(2).any(|w| w[0] > w[1])
            {
                return Err(TvgiError::Inconsistent("CSR_OFF not monotone"));
            }
            if span_off[0] != 0
                || *span_off.last().expect("nonempty") != spans.len() as u64
                || span_off.windows(2).any(|w| w[0] > w[1])
            {
                return Err(TvgiError::Inconsistent("SPAN_OFF not monotone over SPANS"));
            }
            if boundary.iter().any(|&b| b >= info.shards) {
                return Err(TvgiError::Inconsistent("BOUNDARY names an absent shard"));
            }
            shards.push(ShardData {
                csr_off,
                csr_edges,
                span_off,
                spans,
                boundary,
            });
        }

        // Cross-section checks, one linear pass over the CSR slots in
        // file order. Each slot's edge must be in range and its
        // directory entry must point back at that slot: with the CSRs
        // covering exactly `num_edges` slots, that makes the directory a
        // bijection, so every edge owns one slot and no two edges share
        // a span list. Each slot's spans must be sorted, non-empty,
        // disjoint and non-adjacent, the invariants `SpanView`'s binary
        // searches assume. Query paths then index without bounds
        // anxiety beyond the slice ops.
        let total_csr: usize = shards.iter().map(|sh| sh.csr_edges.len()).sum();
        if total_csr != num_edges {
            return Err(TvgiError::Inconsistent(
                "shard CSRs do not cover every edge",
            ));
        }
        for (s, sh) in shards.iter().enumerate() {
            for (local, (e, range)) in sh.csr_edges.iter().zip(sh.span_off.windows(2)).enumerate() {
                let (Some(&owner), Some(&slot)) =
                    (edge_shard.get(e.index()), edge_local.get(e.index()))
                else {
                    return Err(TvgiError::Inconsistent("CSR_EDGES out of range"));
                };
                if owner as usize != s || slot as usize != local {
                    return Err(TvgiError::Inconsistent(
                        "EDGE_SHARD/EDGE_LOCAL do not point back at the edge's CSR slot",
                    ));
                }
                let spans = &sh.spans[range[0] as usize..range[1] as usize];
                if spans.iter().any(|(start, end)| start >= end)
                    || spans.windows(2).any(|w| w[0].1 >= w[1].0)
                {
                    return Err(TvgiError::Inconsistent(
                        "an edge's spans are not sorted, non-empty, disjoint and non-adjacent",
                    ));
                }
            }
        }
        if edge_dst.iter().any(|&d| d as usize >= num_nodes) {
            return Err(TvgiError::Inconsistent("EDGE_DST out of range"));
        }

        Ok(ShardedIndex {
            horizon,
            num_nodes,
            num_edges,
            shard_ranges: ranges,
            edge_shard,
            edge_local,
            edge_dst,
            edge_mono,
            edge_lat,
            names_off,
            names_bytes,
            spec,
            shards,
        })
    }

    /// Shard count of the file.
    #[must_use]
    pub fn num_shards(&self) -> u32 {
        u32::try_from(self.shards.len()).expect("validated at open")
    }

    /// The shard owning node `n` (its contiguous node range contains
    /// `n`).
    #[must_use]
    pub fn shard_of(&self, n: NodeId) -> u32 {
        let s = self
            .shard_ranges
            .partition_point(|&r| r as usize <= n.index());
        u32::try_from(s - 1).expect("shard fits in u32")
    }

    /// The boundary summary of shard `s`: the sorted shards its edges
    /// cross into.
    #[must_use]
    pub fn boundary(&self, s: u32) -> &[u32] {
        &self.shards[s as usize].boundary
    }

    /// Shards reachable from `src`'s shard through boundary summaries
    /// (BFS; always includes the source's own shard). A conservative
    /// superset of the shards any journey from `src` can touch — the
    /// planning step before descending into per-shard stores.
    #[must_use]
    pub fn reachable_shards(&self, src: NodeId) -> Vec<u32> {
        let start = self.shard_of(src);
        let mut seen = vec![false; self.shards.len()];
        seen[start as usize] = true;
        let mut queue = VecDeque::from([start]);
        let mut out = Vec::new();
        while let Some(s) = queue.pop_front() {
            out.push(s);
            for &t in self.boundary(s) {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    queue.push_back(t);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The canonical scenario text embedded at compile time (empty if
    /// none was).
    #[must_use]
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// The name of node `n` from the embedded name table.
    #[must_use]
    pub fn node_name(&self, n: NodeId) -> &str {
        let lo = usize::try_from(self.names_off[n.index()]).expect("validated at open");
        let hi = usize::try_from(self.names_off[n.index() + 1]).expect("validated at open");
        std::str::from_utf8(&self.names_bytes[lo..hi]).unwrap_or("<non-utf8>")
    }

    /// Total number of edge events: one appearance and one
    /// disappearance per stored span (the workload-size measure
    /// scenario reports carry).
    #[must_use]
    pub fn num_edge_events(&self) -> usize {
        2 * self.shards.iter().map(|sh| sh.spans.len()).sum::<usize>()
    }
}

impl<T: TvgiTime> TemporalIndex<T> for ShardedIndex<T> {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn horizon(&self) -> &T {
        &self.horizon
    }

    fn presence(&self, e: EdgeId) -> SpanView<'_, T> {
        let sh = &self.shards[self.edge_shard[e.index()] as usize];
        let local = self.edge_local[e.index()] as usize;
        SpanView(&sh.spans[sh.span_off[local] as usize..sh.span_off[local + 1] as usize])
    }

    fn arrival_is_monotone(&self, e: EdgeId) -> bool {
        self.edge_mono[e.index()] != 0
    }

    fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        let s = self.shard_of(n);
        let sh = &self.shards[s as usize];
        let local = n.index() - self.shard_ranges[s as usize] as usize;
        &sh.csr_edges[sh.csr_off[local] as usize..sh.csr_off[local + 1] as usize]
    }

    fn dst(&self, e: EdgeId) -> NodeId {
        NodeId::from_index(self.edge_dst[e.index()] as usize)
    }

    fn arrival(&self, e: EdgeId, t: &T) -> Option<T> {
        t.checked_add(&self.edge_lat[e.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{ring_bus_tvg, scale_free_temporal};
    use crate::{Presence, Tvg, TvgBuilder};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tvgi-unit-{}-{name}.tvgi", std::process::id()));
        p
    }

    fn sample() -> Tvg<u64> {
        let mut b = TvgBuilder::new();
        let v = b.nodes(5);
        b.edge(
            v[0],
            v[1],
            'a',
            Presence::Periodic {
                period: 4,
                phases: [0u64, 1].into(),
            },
            Latency::unit(),
        )
        .expect("valid");
        b.edge(v[1], v[2], 'b', Presence::After(5u64), Latency::Const(2))
            .expect("valid");
        b.edge(v[0], v[2], 'c', Presence::Never, Latency::unit())
            .expect("valid");
        b.edge(v[3], v[4], 'd', Presence::At(7u64), Latency::unit())
            .expect("valid");
        b.edge(v[4], v[0], 'e', Presence::Always, Latency::Const(3))
            .expect("valid");
        b.build().expect("valid")
    }

    fn assert_equivalent(idx: &TvgIndex<'_, u64>, mapped: &ShardedIndex<u64>) {
        assert_eq!(idx.num_nodes(), mapped.num_nodes());
        assert_eq!(idx.num_edges(), mapped.num_edges());
        assert_eq!(idx.horizon(), mapped.horizon());
        for e in (0..idx.num_edges()).map(EdgeId::from_index) {
            assert_eq!(idx.presence(e), mapped.presence(e), "{e} spans");
            assert_eq!(idx.arrival_is_monotone(e), mapped.arrival_is_monotone(e));
            assert_eq!(idx.tvg().edge(e).dst(), mapped.dst(e));
            for t in [0u64, 1, 3, 7, 11] {
                assert_eq!(idx.arrival(e, &t), mapped.arrival(e, &t), "{e}@{t}");
                assert_eq!(idx.traverse(e, &t), mapped.traverse(e, &t));
            }
        }
        for n in (0..idx.num_nodes()).map(NodeId::from_index) {
            assert_eq!(idx.out_edges(n), mapped.out_edges(n), "{n} adjacency");
        }
        assert_eq!(idx.num_edge_events(), mapped.num_edge_events());
    }

    #[test]
    fn round_trips_at_every_shard_count() {
        let g = sample();
        let idx = TvgIndex::compile(&g, 20);
        for shards in [1u32, 2, 3, 5, 9] {
            let path = tmp(&format!("rt{shards}"));
            let summary = write_tvgi(&idx, shards, Some("spec text"), &path).expect("write");
            assert_eq!(summary.shards, shards.min(5));
            assert_eq!(summary.width, 8);
            let mapped = ShardedIndex::<u64>::open(&path).expect("open");
            assert_eq!(mapped.num_shards(), shards.min(5));
            assert_eq!(mapped.spec(), "spec text");
            assert_eq!(
                mapped.node_name(NodeId::from_index(0)),
                g.node_name(NodeId::from_index(0))
            );
            assert_equivalent(&idx, &mapped);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn narrowed_u32_file_is_half_width() {
        let g = sample();
        let narrowed = crate::narrow_tvg(&g, 20).expect("fits");
        let idx32 = TvgIndex::compile(&narrowed, 20u32);
        let path = tmp("w32");
        let summary = write_tvgi(&idx32, 2, None, &path).expect("write");
        assert_eq!(summary.width, 4);
        // Opening under the wrong width is a typed refusal…
        assert!(matches!(
            ShardedIndex::<u64>::open(&path),
            Err(TvgiError::BadWidth {
                found: 4,
                expected: 8
            })
        ));
        // …and the right width answers like the narrowed compile.
        let mapped = ShardedIndex::<u32>::open(&path).expect("open");
        let e = EdgeId::from_index(1);
        assert_eq!(idx32.traverse(e, &6), mapped.traverse(e, &6));
        assert_eq!(peek_tvgi(&path).expect("peek").width, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_constant_latency_is_refused() {
        let mut b = TvgBuilder::<u64>::new();
        let (u, v) = (b.node("u"), b.node("v"));
        b.edge(
            u,
            v,
            'a',
            Presence::Always,
            Latency::Affine { mul: 2, add: 1 },
        )
        .expect("valid");
        let g = b.build().expect("valid");
        let idx = TvgIndex::compile(&g, 10);
        let path = tmp("nonconst");
        assert_eq!(
            write_tvgi(&idx, 1, None, &path),
            Err(TvgiError::UnsupportedLatency(EdgeId::from_index(0)))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn boundary_summaries_cover_cross_shard_edges() {
        let g = scale_free_temporal(60, 40, 7);
        let idx = TvgIndex::compile(&g, 40);
        let path = tmp("boundary");
        write_tvgi(&idx, 4, None, &path).expect("write");
        let mapped = ShardedIndex::<u64>::open(&path).expect("open");
        // Every cross-shard edge's target shard appears in its source
        // shard's boundary summary.
        for e in (0..mapped.num_edges()).map(EdgeId::from_index) {
            let s = mapped.edge_shard[e.index()];
            let t = mapped.shard_of(mapped.dst(e));
            if s != t {
                assert!(mapped.boundary(s).contains(&t), "{e}: {s}→{t}");
            }
        }
        // reachable_shards from any node is a superset of the shards
        // holding nodes its journeys reach (checked against adjacency
        // closure, the coarsest true bound).
        let from = NodeId::from_index(0);
        let reach = mapped.reachable_shards(from);
        assert!(reach.contains(&mapped.shard_of(from)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ring_round_trip_matches_on_u32_and_u64() {
        let g = ring_bus_tvg(12, 6, 'r');
        let idx = TvgIndex::compile(&g, 30);
        let path = tmp("ring");
        write_tvgi(&idx, 4, None, &path).expect("write");
        let mapped = ShardedIndex::<u64>::open(&path).expect("open");
        assert_equivalent(&idx, &mapped);
        std::fs::remove_file(&path).ok();
    }
}
