//! Zero-copy engine persistence over the `sapla-store` arena container.
//!
//! A snapshot holds everything [`Engine`] needs to answer queries — raw
//! series, reduced representations, and every shard's fully-built tree —
//! as 64-byte-aligned, offset-addressed arenas of plain numeric data.
//! Loading therefore costs O(file size): the container is validated
//! (`SnapshotView::parse`), each arena is reinterpreted in place
//! (`sapla_store::view`), and the trees are adopted verbatim — both
//! kinds through one node-record reader (`load_topology`) and one
//! structural walk ([`Topology::adopt`]), after which each tree checks
//! only its own bounds — no reduction, no O(n log n) insertion build. The engine's in-memory search layout is the file's
//! (DESIGN.md §"Search arenas"): the coefficient arenas become the
//! tree's representation store in one validating pass — no per-series
//! value is built on a load or a save — and [`K_RAW_DATA`] *is* the
//! shard's leaf-ordered `RawArena` buffer, byte for byte.
//!
//! # Who owns the image
//!
//! [`Engine::from_snapshot_file`] reads the file once into a
//! [`SnapshotBytes`], keeps it behind an `Arc`, and every shard's
//! `RawArena` borrows its samples from it: the raw series — 88–99% of a
//! file — are never copied, and the loaded engine retains the whole
//! image (the raw arenas plus the 1–14% of representation and tree
//! arenas it has already materialised) until it is dropped.
//! [`Engine::from_snapshot_image`] takes a `&[u8]` it cannot retain, so
//! it copies each raw arena once, in bulk, into an allocation the arena
//! owns. Both run the same checks: the whole-file checksum before any
//! arena is read, the adopted tree's leaf walk a permutation of the
//! entry ids, every raw sample finite, every representation a valid
//! segmentation of exactly as many points as the raw series have. The
//! pass over the raw samples that checks them also derives each shard's
//! node envelopes ([`crate::envelope`]), which the format does not store.
//!
//! # Arena schema (consumer side of the container)
//!
//! Global arenas (shard 0): [`K_META`]. Per shard `s`:
//!
//! | kind | element | contents |
//! |------|---------|----------|
//! | [`K_RAW_DATA`] | `f64` | raw samples, series-concatenated in the tree's leaf-walk (slot) order |
//! | [`K_RAW_LENS`] | `u64` | raw length per series (all equal: the arena's stride) |
//! | [`K_REP_SPANS`] | `u64` | segment count per representation |
//! | [`K_REP_SLOPES`] / [`K_REP_INTERCEPTS`] | `f64` | exact SoA coefficients |
//! | [`K_REP_ENDPOINTS`] | `u64` | exact inclusive right endpoints |
//! | [`K_REP_BLOB`] | bytes | hardened-codec fallback for non-linear reps |
//! | [`K_TREE_NODES`] | `u64` | node records, one per [`Topology`] slot: `[is leaf, id offset, id count]` + the kind's tail (DBCH `u, l, volume bits`: stride 6; R-tree none: stride 3) |
//! | [`K_CHILD_IDS`] | `u64` | flat child / entry id arena |
//! | [`K_SHARD_META`] | `u64` | `[root, node count, rep count]` |
//! | [`K_RECT_SPANS`] / [`K_RECT_LO`] / [`K_RECT_HI`] | `u64` / `f64` | R-tree rectangles |
//! | [`K_FEATURE_SPANS`] / [`K_FEATURES`] | `u64` / `f64` | R-tree feature vectors |
//!
//! Coefficients are stored as their `f64` bits, so a loaded tree bounds
//! and prunes exactly as the tree that was saved. Kind numbers in
//! [`RETIRED_KINDS`] and header flag bit 0 belonged to a retired lossy
//! image format; an image that uses either is refused, never read as
//! exact.

use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use sapla_baselines::{all_reducers, Reducer};
use sapla_core::codec::{decode_collection, encode_collection};
use sapla_core::{Error, Result};
use sapla_store::{put_f64s, put_u32s, put_u64s, view, ArenaWriter, SnapshotBytes, SnapshotView};

use crate::arena::{RawArena, RepArena, RepStore};
use crate::batched::BatchTree;
use crate::dbch::{check_hull_volume, DbchTree, Hull, NodeDistRule};
use crate::engine::{Engine, EngineConfig, Shard, ShardIndex, TreeKind};
use crate::envelope::{EnvelopeFold, SegmentSums};
use crate::rect::HyperRect;
use crate::rtree::RTree;
use crate::scheme::{scheme_for, Scheme};
use crate::topology::{Node, Topology};

/// Global engine metadata (method, config).
pub(crate) const K_META: u32 = 1;
/// Raw samples, `f64`, series-concatenated in the order of the shard
/// tree's leaf walk — the shard's `RawArena` buffer verbatim.
pub(crate) const K_RAW_DATA: u32 = 10;
/// Raw series lengths, `u64`, one per series (all equal).
pub(crate) const K_RAW_LENS: u32 = 11;
/// Exact SoA slopes, `f64`, segment-concatenated.
pub(crate) const K_REP_SLOPES: u32 = 20;
/// Exact SoA intercepts, `f64`.
pub(crate) const K_REP_INTERCEPTS: u32 = 21;
/// Exact inclusive right endpoints, `u64`.
pub(crate) const K_REP_ENDPOINTS: u32 = 22;
/// Segment count per representation, `u64`.
pub(crate) const K_REP_SPANS: u32 = 23;
/// Hardened-codec blob for non-linear representation collections.
pub(crate) const K_REP_BLOB: u32 = 28;
/// Tree node records, `u64` (stride 6 for DBCH, 3 for the R-tree).
pub(crate) const K_TREE_NODES: u32 = 30;
/// Flat child / leaf-entry id arena, `u64`.
pub(crate) const K_CHILD_IDS: u32 = 31;
/// `[root, node count, rep count]`, `u64`.
pub(crate) const K_SHARD_META: u32 = 32;
/// R-tree rectangle lower corners, `f64`, node-concatenated.
pub(crate) const K_RECT_LO: u32 = 40;
/// R-tree rectangle upper corners, `f64`.
pub(crate) const K_RECT_HI: u32 = 41;
/// Rectangle dimensionality per node, `u64`.
pub(crate) const K_RECT_SPANS: u32 = 42;
/// R-tree feature vectors, `f64`, rep-concatenated.
pub(crate) const K_FEATURES: u32 = 43;
/// Feature dimensionality per rep, `u64`.
pub(crate) const K_FEATURE_SPANS: u32 = 44;

/// Arena kinds of the retired ε-quantized images: their `i32`
/// coefficients, delta-coded endpoints and `Dist_LB` slacks, and the
/// slack an exact re-save of such an engine carried. An image holding
/// any of them is refused; no new kind may reuse these numbers.
const RETIRED_KINDS: [u32; 5] = [24, 25, 26, 27, 29];
/// Header flag bit 0, which the retired quantized images set.
const RETIRED_FLAGS: u32 = 1;

/// Words every node record starts with: kind tag, offset and count of
/// the node's ids in [`K_CHILD_IDS`].
const NODE_HEAD: usize = 3;
/// A DBCH record ends in its hull: `u`, `l`, volume bits.
const DBCH_NODE_STRIDE: usize = NODE_HEAD + 3;
/// An R-tree record has no tail; rectangles ride in arenas of their own.
const RTREE_NODE_STRIDE: usize = NODE_HEAD;

fn corrupt(reason: &'static str) -> Error {
    Error::CorruptIndex { reason }
}

fn to_usize(v: u64, what: &'static str) -> Result<usize> {
    usize::try_from(v).map_err(|_| Error::CorruptIndex { reason: what })
}

// ---------------------------------------------------------------------
// META arena
// ---------------------------------------------------------------------

struct Meta {
    tree: TreeKind,
    rule: NodeDistRule,
    m: usize,
    min_fill: usize,
    max_fill: usize,
    shards: usize,
    total: usize,
    method: String,
}

fn encode_meta(engine: &Engine) -> Vec<u8> {
    let cfg = engine.cfg;
    let mut out = Vec::new();
    put_u32s(
        &mut out,
        [
            match cfg.tree {
                TreeKind::Dbch => 0u32,
                TreeKind::Rtree => 1,
            },
            match cfg.rule {
                NodeDistRule::Paper => 0u32,
                NodeDistRule::Triangle => 1,
            },
        ],
    );
    put_u64s(
        &mut out,
        [
            cfg.m as u64,
            cfg.min_fill as u64,
            cfg.max_fill as u64,
            cfg.shards as u64,
            engine.total as u64,
        ],
    );
    // The retired step field: always 0.0.
    put_f64s(&mut out, [0.0]);
    let method = engine.reducer.name().as_bytes();
    // audit: cast_ok — reducer names are short static identifiers, far below u32::MAX.
    put_u32s(&mut out, [method.len() as u32]);
    out.extend_from_slice(method);
    out
}

/// A bounds-checked little-endian byte cursor for the META arena.
struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Self { data, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| corrupt("snapshot metadata truncated"))?;
        let out = &self.data[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn finish(self) -> Result<()> {
        if self.at != self.data.len() {
            return Err(corrupt("snapshot metadata has trailing bytes"));
        }
        Ok(())
    }
}

fn parse_meta(data: &[u8]) -> Result<Meta> {
    let mut c = Cursor::new(data);
    let tree = match c.u32()? {
        0 => TreeKind::Dbch,
        1 => TreeKind::Rtree,
        _ => return Err(corrupt("snapshot metadata names an unknown tree kind")),
    };
    let rule = match c.u32()? {
        0 => NodeDistRule::Paper,
        1 => NodeDistRule::Triangle,
        _ => return Err(corrupt("snapshot metadata names an unknown node-distance rule")),
    };
    let m = to_usize(c.u64()?, "snapshot coefficient budget overflows")?;
    let min_fill = to_usize(c.u64()?, "snapshot min fill overflows")?;
    let max_fill = to_usize(c.u64()?, "snapshot max fill overflows")?;
    let shards = to_usize(c.u64()?, "snapshot shard count overflows")?;
    let total = to_usize(c.u64()?, "snapshot record count overflows")?;
    if c.u64()? != 0 {
        return Err(corrupt("snapshot metadata carries a quantization step"));
    }
    let method_len = to_usize(u64::from(c.u32()?), "snapshot method name overflows")?;
    let method = String::from_utf8(c.take(method_len)?.to_vec())
        .map_err(|_| corrupt("snapshot method name is not UTF-8"))?;
    c.finish()?;
    Ok(Meta { tree, rule, m, min_fill, max_fill, shards, total, method })
}

// ---------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------

/// Rep arenas: the four SoA arenas (bit-preserving — coefficients
/// round-trip as raw `f64` bits) of a linear store, the hardened-codec
/// blob of any other.
fn push_reps(w: &mut ArenaWriter, s: u32, reps: &RepStore) -> Result<()> {
    match reps {
        RepStore::Stored(reps) => w.push_arena(K_REP_BLOB, s, &encode_collection(reps)?),
        RepStore::Linear(arena) => {
            w.push_u64s(K_REP_SPANS, s, arena.counts())?;
            w.push_f64s(K_REP_SLOPES, s, arena.slopes().iter().copied())?;
            w.push_f64s(K_REP_INTERCEPTS, s, arena.intercepts().iter().copied())?;
            w.push_u64s(K_REP_ENDPOINTS, s, arena.endpoints().iter().map(|&r| r as u64))
        }
    }
}

/// The one writer of a tree's shape: [`K_TREE_NODES`] gets one record per
/// arena slot, in slot order — kind tag, offset and count of the node's
/// ids, then the `TAIL` words `tail(bound)` of the tree's kind —
/// and [`K_CHILD_IDS`] the child / entry ids, node-concatenated, that
/// those `(offset, count)` pairs index. Returns `[root, node count]` for
/// the shard's [`K_SHARD_META`], which closes the shard's arenas.
fn push_topology<B, const TAIL: usize>(
    w: &mut ArenaWriter,
    shard: u32,
    topology: &Topology<B>,
    tail: impl Fn(&B) -> [u64; TAIL],
) -> Result<[u64; 2]> {
    let nodes = topology.nodes();
    let mut ids_at = 0u64;
    let records = nodes.iter().flat_map(|n| {
        let head = [u64::from(n.is_leaf()), ids_at, n.ids().len() as u64];
        ids_at += n.ids().len() as u64;
        head.into_iter().chain(tail(&n.bound))
    });
    w.push_u64s(K_TREE_NODES, shard, records)?;
    let ids = nodes.iter().flat_map(|n| n.ids().iter().map(|&id| id as u64));
    w.push_u64s(K_CHILD_IDS, shard, ids)?;
    Ok([topology.root() as u64, nodes.len() as u64])
}

/// The R-tree's bounds and feature vectors, beside its node records.
fn push_rects_and_features(w: &mut ArenaWriter, shard: u32, tree: &RTree) -> Result<()> {
    let rects = || tree.topology().nodes().iter().map(|n| &n.bound);
    w.push_u64s(K_RECT_SPANS, shard, rects().map(|r| r.dims() as u64))?;
    w.push_f64s(K_RECT_LO, shard, rects().flat_map(|r| r.lo.iter().copied()))?;
    w.push_f64s(K_RECT_HI, shard, rects().flat_map(|r| r.hi.iter().copied()))?;
    let features = tree.feature_vectors();
    w.push_u64s(K_FEATURE_SPANS, shard, features.iter().map(|f| f.len() as u64))?;
    w.push_f64s(K_FEATURES, shard, features.iter().flat_map(|f| f.iter().copied()))
}

pub(crate) fn write_image(engine: &Engine) -> Result<Vec<u8>> {
    let mut w = ArenaWriter::new(0);
    w.push_arena(K_META, 0, &encode_meta(engine))?;
    for (si, shard) in engine.shards.iter().enumerate() {
        let s = u32::try_from(si).map_err(|_| corrupt("too many shards for a snapshot"))?;
        // The raw arena goes out as it lies in memory — leaf-walk order —
        // so a loader can use it where it lands.
        let raws = &shard.raws;
        w.push_u64s(K_RAW_LENS, s, std::iter::repeat_n(raws.stride() as u64, raws.len()))?;
        w.push_f64s(K_RAW_DATA, s, raws.samples().iter().copied())?;
        let reps = shard.index.reps();
        push_reps(&mut w, s, reps)?;
        let [root, n_nodes] = match &shard.index {
            ShardIndex::Dbch(tree) => {
                for n in tree.topology().nodes() {
                    check_hull_volume(n.bound.volume)?;
                }
                push_topology(&mut w, s, tree.topology(), |h| {
                    [h.u as u64, h.l as u64, h.volume.to_bits()]
                })?
            }
            ShardIndex::Rtree(tree) => {
                let shape = push_topology(&mut w, s, tree.topology(), |_| [])?;
                push_rects_and_features(&mut w, s, tree)?;
                shape
            }
        };
        w.push_u64s(K_SHARD_META, s, [root, n_nodes, reps.len() as u64])?;
    }
    Ok(w.finish())
}

pub(crate) fn write_file(engine: &Engine, path: &Path) -> Result<u64> {
    sapla_store::write_image_file(path, &write_image(engine)?)
}

// ---------------------------------------------------------------------
// Load path
// ---------------------------------------------------------------------

/// Sum `spans` with overflow checking and verify the per-element arena
/// holds exactly that many elements.
fn checked_total(spans: &[u64], have: usize, what: &'static str) -> Result<usize> {
    let mut total = 0usize;
    for &s in spans {
        total =
            to_usize(s, what)?.checked_add(total).ok_or(Error::CorruptIndex { reason: what })?;
    }
    if total != have {
        return Err(Error::CorruptIndex { reason: what });
    }
    Ok(total)
}

fn load_reps(v: &SnapshotView<'_>, s: u32) -> Result<RepStore> {
    if let Some(blob) = v.arena_opt(K_REP_BLOB, s) {
        return Ok(RepStore::from_reps(decode_collection(blob)?));
    }
    let spans = view::u64s(v.arena(K_REP_SPANS, s)?)?;
    let slopes = view::f64s(v.arena(K_REP_SLOPES, s)?)?;
    let intercepts = view::f64s(v.arena(K_REP_INTERCEPTS, s)?)?;
    let endpoints = view::u64s(v.arena(K_REP_ENDPOINTS, s)?)?;
    let arena =
        RepArena::adopt(spans, slopes.to_vec(), intercepts.to_vec(), endpoints.iter().copied())?;
    Ok(RepStore::Linear(arena))
}

/// The shard's raw samples as stored — series-concatenated in leaf-walk
/// order.
struct StoredRaws<'a> {
    samples: &'a [f64],
    /// Where `samples` lies in the image.
    bytes: Range<usize>,
    /// The common series length the fixed-stride raw arena needs.
    stride: usize,
}

/// Checks the arena's shape only; the samples themselves, and the
/// order, are validated by the [`RawArena`] constructor that adopts them.
fn load_raws<'a>(v: &SnapshotView<'a>, s: u32, n_reps: usize) -> Result<StoredRaws<'a>> {
    let lens = view::u64s(v.arena(K_RAW_LENS, s)?)?;
    if lens.len() != n_reps {
        return Err(corrupt("snapshot raw lengths disagree with the shard record count"));
    }
    let samples = view::f64s(v.arena(K_RAW_DATA, s)?)?;
    let bytes = v.arena_range(K_RAW_DATA, s)?;
    checked_total(lens, samples.len(), "snapshot raw arena disagrees with the raw lengths")?;
    let stride = to_usize(lens.first().copied().unwrap_or(0), "snapshot raw length overflows")?;
    if lens.iter().any(|&len| len != lens[0]) {
        return Err(corrupt("snapshot raw series differ in length"));
    }
    Ok(StoredRaws { samples, bytes, stride })
}

/// The one reader of a tree's shape: `n_nodes` records of `stride` words
/// from [`K_TREE_NODES`], each resolved against [`K_CHILD_IDS`] into a
/// node whose bound `bound_of` makes of the record's tail (the words
/// after the kind tag, id offset and id count). Checks what a record can
/// be checked for alone — arena length, kind tag, ids inside the id
/// arena, `u64 → usize`; what the nodes must satisfy *together* is
/// [`Topology::adopt`]'s walk.
fn load_topology<B>(
    v: &SnapshotView<'_>,
    s: u32,
    n_nodes: usize,
    stride: usize,
    mut bound_of: impl FnMut(&[u64]) -> Result<B>,
) -> Result<Vec<Node<B>>> {
    let words = view::u64s(v.arena(K_TREE_NODES, s)?)?;
    if n_nodes.checked_mul(stride) != Some(words.len()) {
        return Err(corrupt("snapshot node arena disagrees with the shard node count"));
    }
    let children = view::u64s(v.arena(K_CHILD_IDS, s)?)?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for rec in words.chunks_exact(stride) {
        let is_leaf = match rec[0] {
            0 => false,
            1 => true,
            _ => return Err(corrupt("snapshot node record has an unknown kind tag")),
        };
        let off = to_usize(rec[1], "snapshot child offset overflows")?;
        let len = to_usize(rec[2], "snapshot child count overflows")?;
        let end = off.checked_add(len).ok_or_else(|| corrupt("snapshot child count overflows"))?;
        let ids = children
            .get(off..end)
            .ok_or_else(|| corrupt("snapshot node children outside the id arena"))?
            .iter()
            .map(|&id| to_usize(id, "snapshot child id overflows"))
            .collect::<Result<Vec<_>>>()?;
        nodes.push(Node::new(is_leaf, ids, bound_of(&rec[NODE_HEAD..])?));
    }
    Ok(nodes)
}

fn load_dbch_tree(
    v: &SnapshotView<'_>,
    s: u32,
    meta: &Meta,
    [root, n_nodes]: [usize; 2],
    reps: RepStore,
) -> Result<DbchTree> {
    let nodes = load_topology(v, s, n_nodes, DBCH_NODE_STRIDE, |tail| {
        Ok(Hull {
            u: to_usize(tail[0], "snapshot hull endpoint overflows")?,
            l: to_usize(tail[1], "snapshot hull endpoint overflows")?,
            volume: f64::from_bits(tail[2]),
        })
    })?;
    let topology = Topology::adopt(meta.min_fill, meta.max_fill, root, nodes, reps.len())?;
    DbchTree::adopt(topology, reps, meta.rule)
}

fn load_rtree(
    v: &SnapshotView<'_>,
    s: u32,
    meta: &Meta,
    [root, n_nodes]: [usize; 2],
    reps: RepStore,
) -> Result<RTree> {
    let rect_spans = view::u64s(v.arena(K_RECT_SPANS, s)?)?;
    if rect_spans.len() != n_nodes {
        return Err(corrupt("snapshot rectangle spans disagree with the shard node count"));
    }
    let rect_lo = view::f64s(v.arena(K_RECT_LO, s)?)?;
    let rect_hi = view::f64s(v.arena(K_RECT_HI, s)?)?;
    checked_total(rect_spans, rect_lo.len(), "snapshot rectangle arena disagrees with its spans")?;
    if rect_hi.len() != rect_lo.len() {
        return Err(corrupt("snapshot rectangle lo/hi arenas disagree in length"));
    }
    // Node `i`'s rectangle is the `i`-th span of the two corner arenas.
    let mut spans = rect_spans.iter();
    let mut rect_at = 0usize;
    let nodes = load_topology(v, s, n_nodes, RTREE_NODE_STRIDE, |_| {
        let dims = spans.next().copied().unwrap_or(0);
        let dims = to_usize(dims, "snapshot rectangle span overflows")?;
        let at = rect_at..rect_at + dims;
        rect_at += dims;
        Ok(HyperRect { lo: rect_lo[at.clone()].to_vec(), hi: rect_hi[at].to_vec() })
    })?;
    let topology = Topology::adopt(meta.min_fill, meta.max_fill, root, nodes, reps.len())?;
    let features = load_features(v, s, reps.len())?;
    RTree::adopt(topology, reps, features)
}

fn load_features(v: &SnapshotView<'_>, s: u32, n_reps: usize) -> Result<Vec<Vec<f64>>> {
    let spans = view::u64s(v.arena(K_FEATURE_SPANS, s)?)?;
    if spans.len() != n_reps {
        return Err(corrupt("snapshot feature spans disagree with the shard record count"));
    }
    let data = view::f64s(v.arena(K_FEATURES, s)?)?;
    checked_total(spans, data.len(), "snapshot feature arena disagrees with its spans")?;
    let mut features = Vec::with_capacity(n_reps);
    let mut at = 0usize;
    for &span in spans {
        let span = to_usize(span, "snapshot feature span overflows")?;
        features.push(data[at..at + span].to_vec());
        at += span;
    }
    Ok(features)
}

/// Materialise the engine a validated container describes. With
/// `retain` — the image `v` was parsed from — every shard's raw arena
/// borrows its samples from that image and keeps it alive; without, each
/// is copied out once, in bulk.
fn adopt(v: &SnapshotView<'_>, retain: Option<&Arc<SnapshotBytes>>) -> Result<Engine> {
    let _span = sapla_obs::span!("index.adopt");
    if v.flags() & !RETIRED_FLAGS != 0 {
        return Err(corrupt("snapshot carries unknown header flags"));
    }
    if v.flags() != 0 || v.toc().iter().any(|e| RETIRED_KINDS.contains(&e.kind)) {
        return Err(Error::UnsupportedRepresentation {
            operation: "load a quantized snapshot image",
        });
    }
    let meta = parse_meta(v.arena(K_META, 0)?)?;
    let scheme: Arc<dyn Scheme> = Arc::from(scheme_for(&meta.method)?);
    let reducer: Arc<dyn Reducer> = Arc::from(
        all_reducers()
            .into_iter()
            .find(|r| r.name().eq_ignore_ascii_case(&meta.method))
            .ok_or_else(|| Error::UnknownMethod { name: meta.method.clone() })?,
    );
    let n_shards = meta.shards.max(1);
    let mut shards: Vec<Shard> = Vec::with_capacity(n_shards);
    let mut seen = 0usize;
    for si in 0..n_shards {
        let s = u32::try_from(si).map_err(|_| corrupt("snapshot shard count overflows"))?;
        let sm = view::u64s(v.arena(K_SHARD_META, s)?)?;
        if sm.len() != 3 {
            return Err(corrupt("snapshot shard metadata has the wrong arity"));
        }
        let root = to_usize(sm[0], "snapshot root id overflows")?;
        let n_nodes = to_usize(sm[1], "snapshot node count overflows")?;
        let n_reps = to_usize(sm[2], "snapshot record count overflows")?;
        // Round-robin placement is part of the engine contract: global
        // id g lives in shard g % S at local id g / S.
        let expect = meta.total / n_shards + usize::from(si < meta.total % n_shards);
        if n_reps != expect {
            return Err(corrupt("snapshot shard sizes break round-robin placement"));
        }
        seen += n_reps;
        let stored = load_raws(v, s, n_reps)?;
        let reps = load_reps(v, s)?;
        if reps.len() != n_reps {
            return Err(corrupt("snapshot representations disagree with the shard record count"));
        }
        // A rep of another length than the raw series would be adopted
        // and then fail every search that reaches it.
        if reps.length_mismatch(stored.stride).is_some() {
            return Err(corrupt("snapshot representation and raw series differ in length"));
        }
        let shape = [root, n_nodes];
        let index = match meta.tree {
            TreeKind::Dbch => ShardIndex::Dbch(load_dbch_tree(v, s, &meta, shape, reps)?),
            TreeKind::Rtree => ShardIndex::Rtree(load_rtree(v, s, &meta, shape, reps)?),
        };
        // The samples lie in the order of the adopted tree's leaf walk:
        // slot `i` holds entry `order[i]`.
        let order = index.leaf_walk();
        // Counted on both paths, so a file load shows its zero.
        sapla_obs::counter!(
            "index.snapshot.raw_bytes_copied",
            if retain.is_some() { 0 } else { std::mem::size_of_val(stored.samples) as u64 }
        );
        // The node envelopes are derived, not stored: the pass that
        // checks every sample folds each series into its leaf's.
        let mut fold = EnvelopeFold::new(index.hierarchy(), stored.stride);
        let push = |sums: &SegmentSums| fold.push(sums);
        let raws = match retain {
            Some(image) => RawArena::borrowed(&order, stored.stride, image, stored.bytes, push)?,
            None => RawArena::copied(&order, stored.stride, stored.samples, push)?,
        };
        let envelopes = fold.finish();
        shards.push(Shard { index, raws, envelopes });
    }
    if seen != meta.total {
        return Err(corrupt("snapshot shard sizes do not sum to the record count"));
    }
    let cfg = EngineConfig {
        tree: meta.tree,
        m: meta.m,
        min_fill: meta.min_fill,
        max_fill: meta.max_fill,
        shards: meta.shards,
        rule: meta.rule,
    };
    Ok(Engine { cfg, scheme, reducer, shards, total: meta.total })
}

/// Validate a container image — the whole-file checksum first — before
/// any arena of it is interpreted.
fn verify(data: &[u8]) -> Result<SnapshotView<'_>> {
    let _span = sapla_obs::span!("store.verify");
    SnapshotView::parse(data)
}

pub(crate) fn load_image(data: &[u8]) -> Result<Engine> {
    adopt(&verify(data)?, None)
}

pub(crate) fn load_file(path: &Path) -> Result<Engine> {
    let image = {
        let _span = sapla_obs::span!("store.read");
        Arc::new(SnapshotBytes::read_file(path)?)
    };
    adopt(&verify(image.bytes())?, Some(&image))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{dataset, engine_with};
    use crate::envelope::tests::{envelope_free, same_answers};
    use crate::knn::SearchStats;
    use sapla_core::temp::TempPath;
    use sapla_core::TimeSeries;

    /// kNN and ε-range answers to the first few series as queries.
    fn answers(engine: &Engine, raws: &[TimeSeries]) -> Vec<SearchStats> {
        let queries = engine.prepare(&raws[..raws.len().min(5)], 2).unwrap();
        let mut out = engine.knn(&queries, 4, 2).unwrap().0;
        out.extend(queries.iter().map(|q| engine.range(q, 4.0).unwrap()));
        out
    }

    /// `image` through both loaders: the slice as it is, and a file
    /// holding it.
    fn load_both_ways(image: &[u8]) -> [Result<Engine>; 2] {
        let file = TempPath::new("sapla-snapshot-both", ".snap");
        std::fs::write(&file, image).unwrap();
        [load_image(image), load_file(file.path())]
    }

    /// Recompute the checksum of a deliberately mutated image, so the
    /// mutation reaches the checks behind the container's.
    fn reseal(image: &mut [u8]) {
        let sum = sapla_store::image_checksum(image).to_le_bytes();
        image[24..32].copy_from_slice(&sum);
    }

    fn arena_at(image: &[u8], kind: u32, shard: u32) -> Range<usize> {
        SnapshotView::parse(image).unwrap().arena_range(kind, shard).unwrap()
    }

    /// The `u64` at byte `at`.
    fn word(image: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(image[at..at + 8].try_into().unwrap())
    }

    fn set_word(image: &mut [u8], at: usize, value: u64) {
        image[at..at + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Both loaders must refuse `image`, and for the same reason.
    fn refused(image: &[u8], what: &str) -> Error {
        let [from_image, from_file] =
            load_both_ways(image).map(|loaded| loaded.map(|_| ()).expect_err(what));
        assert_eq!(from_image, from_file, "{what}");
        from_image
    }

    /// `mutate` applied to a copy of `image` and re-sealed: both loaders
    /// must answer `CorruptIndex`.
    fn corrupt_index(image: &[u8], what: &str, mutate: &dyn Fn(&mut [u8])) {
        let mut image = image.to_vec();
        mutate(&mut image);
        reseal(&mut image);
        let err = refused(&image, what);
        assert!(matches!(err, Error::CorruptIndex { .. }), "{what}: {err}");
    }

    /// What the one adoption walk refuses — the same legs over either
    /// kind of tree — and then what each kind checks of its own bounds.
    fn tree_corruption_is_refused(kind: TreeKind) {
        let raws = dataset(60, 64);
        let image = engine_with(2, kind, &raws).snapshot_image(None).unwrap();
        let stride = 8 * match kind {
            TreeKind::Dbch => DBCH_NODE_STRIDE,
            TreeKind::Rtree => RTREE_NODE_STRIDE,
        };
        let nodes = arena_at(&image, K_TREE_NODES, 0);
        let ids = arena_at(&image, K_CHILD_IDS, 0).start;
        let meta = arena_at(&image, K_SHARD_META, 0).start;
        let (n_nodes, n_reps) = (word(&image, meta + 8), word(&image, meta + 16));
        // Records of one kind tag with at least two ids; where a record's
        // ids start.
        let records = |tag: u64| -> Vec<usize> {
            let found = |&rec: &usize| word(&image, rec) == tag && word(&image, rec + 16) >= 2;
            nodes.clone().step_by(stride).filter(found).collect()
        };
        let ids_of = |rec: usize| ids + 8 * word(&image, rec + 8) as usize;
        let (internals, leaves) = (records(0), records(1));
        assert!(internals.len() >= 2 && !leaves.is_empty(), "{kind:?}");
        let (internal, other, leaf) = (internals[0], internals[1], leaves[0]);
        let refuse = |what: &str, mutate: &dyn Fn(&mut [u8])| {
            corrupt_index(&image, &format!("{kind:?}: {what}"), mutate);
        };

        refuse("root id outside the arena", &|im| set_word(im, meta, n_nodes));
        refuse("child id outside the arena", &|im| set_word(im, ids_of(internal), n_nodes + 7));
        let shared = word(&image, ids_of(internal));
        refuse("a child listed by two parents", &|im| set_word(im, ids_of(other), shared));
        let fanout = word(&image, internal + 16);
        refuse("a detached slot", &|im| set_word(im, internal + 16, fanout - 1));
        refuse("an internal node without children", &|im| set_word(im, internal + 16, 0));
        refuse("a leaf entry outside the store", &|im| set_word(im, ids_of(leaf), n_reps));
        // The walk over the adopted tree would no longer be a permutation
        // of the entry ids.
        let first = word(&image, ids_of(leaf));
        refuse("a repeated leaf entry", &|im| set_word(im, ids_of(leaf) + 8, first));
        refuse("an unknown kind tag", &|im| set_word(im, leaf, 2));
        refuse("node records ≠ node count × stride", &|im| set_word(im, meta + 8, n_nodes + 1));

        match kind {
            TreeKind::Dbch => {
                refuse("hull endpoint outside the store", &|im| set_word(im, leaf + 24, n_reps));
                for volume in [f64::NAN, f64::INFINITY, -1.0] {
                    refuse("hull volume", &|im| set_word(im, internal + 40, volume.to_bits()));
                }
            }
            TreeKind::Rtree => {
                let (lo, hi) =
                    (arena_at(&image, K_RECT_LO, 0).start, arena_at(&image, K_RECT_HI, 0).start);
                let above = f64::from_bits(word(&image, hi)) + 1.0;
                refuse("inverted rectangle", &|im| set_word(im, lo, above.to_bits()));
                refuse("non-finite rectangle", &|im| set_word(im, hi, f64::NAN.to_bits()));
                // Nodes 0 and 1 trade one dimension, the total unchanged:
                // adopted, MINDIST would read either rectangle by the
                // query's arity — an error from every search at best, the
                // wrong coordinates without complaint at worst.
                rect_arity_is_refused(&image);
                let paa = EngineConfig { tree: TreeKind::Rtree, ..EngineConfig::default() };
                let paa = Engine::build(paa, Box::new(sapla_baselines::Paa), dataset(40, 64), 2);
                rect_arity_is_refused(&paa.unwrap().snapshot_image(None).unwrap());
            }
        }
    }

    /// The envelope pass that now runs inside the sample check must not
    /// weaken it: a NaN or an infinity anywhere in a raw arena — first,
    /// inside or last sample of a series, any shard, either kind of tree
    /// — is refused by both loaders with `NonFiniteSample` at its index
    /// within the series. Finite samples whose segment sum overflows are
    /// no reason to refuse: they load, their segment is unbounded, and
    /// the engine answers as its shards do without envelopes.
    #[test]
    fn every_non_finite_raw_sample_is_refused_at_its_index() {
        let raws = dataset(20, 64);
        for kind in [TreeKind::Dbch, TreeKind::Rtree] {
            let image = engine_with(2, kind, &raws).snapshot_image(None).unwrap();
            for (shard, series, index) in
                [(0u32, 0usize, 0usize), (1, 3, 5), (1, 9, 63), (0, 9, 31)]
            {
                for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut bad = image.clone();
                    let at = arena_at(&bad, K_RAW_DATA, shard).start + 8 * (series * 64 + index);
                    bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
                    reseal(&mut bad);
                    let what =
                        format!("{kind:?}: {value} at shard {shard}, slot {series}, {index}");
                    assert_eq!(refused(&bad, &what), Error::NonFiniteSample { index }, "{what}");
                }
            }
            let mut big = image.clone();
            let at = arena_at(&big, K_RAW_DATA, 1).start + 8 * (2 * 64 + 8);
            for (i, v) in [f64::MAX, f64::MAX, -f64::MAX].into_iter().enumerate() {
                big[at + 8 * i..at + 8 * i + 8].copy_from_slice(&v.to_le_bytes());
            }
            reseal(&mut big);
            for loaded in load_both_ways(&big) {
                let loaded = loaded.unwrap();
                let queries = loaded.prepare(&raws[..6], 2).unwrap();
                let (knn, range) = envelope_free(&loaded, &queries, 3, 4.0);
                let (got, _) = loaded.knn(&queries, 3, 2).unwrap();
                same_answers(&got, &knn, &format!("{kind:?}: knn"));
                let got: Vec<_> = queries.iter().map(|q| loaded.range(q, 4.0).unwrap()).collect();
                same_answers(&got, &range, &format!("{kind:?}: range"));
            }
        }
    }

    /// A DBCH hull over ±1e300 samples can overflow its volume to `+∞`.
    /// Such an engine builds and answers, but the write refuses it with
    /// the loader's own error — no image, no file — instead of producing
    /// one that [`DbchTree::adopt`] would refuse.
    #[test]
    fn a_hull_volume_the_loader_refuses_is_refused_at_write() {
        let mut raws = dataset(20, 64);
        for i in [5, 11] {
            let huge = (0..64).map(|t| if t % 2 == 0 { 1e300 } else { -1e300 });
            raws[i] = TimeSeries::new(huge.collect()).unwrap();
        }
        let want = Error::CorruptIndex {
            reason: "snapshot hull volume is not a finite non-negative value",
        };
        for shards in [1usize, 2] {
            let engine = engine_with(shards, TreeKind::Dbch, &raws);
            let queries = engine.prepare(&raws[..3], 1).unwrap();
            assert!(engine.knn(&queries, 3, 1).is_ok(), "{shards} shards");
            let file = TempPath::new("sapla-hull-volume", ".snap");
            assert_eq!(engine.snapshot_image(None).unwrap_err(), want, "{shards} shards");
            assert_eq!(
                engine.write_snapshot_file(file.path(), None).unwrap_err(),
                want,
                "{shards} shards"
            );
            assert!(!file.path().exists(), "{shards} shards");
        }
    }

    fn rect_arity_is_refused(image: &[u8]) {
        let spans = arena_at(image, K_RECT_SPANS, 0).start;
        assert_eq!((word(image, spans), word(image, spans + 8)), (12, 12));
        corrupt_index(image, "rectangle arity", &|im| {
            set_word(im, spans, 11);
            set_word(im, spans + 8, 13);
        });
    }

    #[test]
    fn snapshot_with_more_shards_than_series_round_trips_through_a_file() {
        // Four of the seven shards are empty: their raw arenas are
        // zero-length ranges of the image, and so is everything of an
        // engine with no series at all.
        for total in [3usize, 0] {
            let raws = dataset(total, 64);
            let built = engine_with(7, TreeKind::Dbch, &raws);
            let first = built.snapshot_image(None).unwrap();
            for loaded in load_both_ways(&first) {
                let loaded = loaded.unwrap();
                assert_eq!((loaded.len(), loaded.shard_count()), (total, 7));
                assert!(loaded.snapshot_image(None).unwrap() == first, "total = {total}");
                let queries = loaded.prepare(&dataset(3, 64), 2).unwrap();
                let got = loaded.knn(&queries, 2, 2).unwrap().0;
                assert_eq!(got, built.knn(&queries, 2, 2).unwrap().0, "total = {total}");
                assert!(got.iter().all(|a| a.retrieved.len() == total.min(2)));
            }
        }
    }

    #[test]
    fn snapshot_loaded_engine_outlives_its_file() {
        let raws = dataset(30, 64);
        let built = engine_with(2, TreeKind::Dbch, &raws);
        let file = TempPath::new("sapla-snapshot-outlives", ".snap");
        built.write_snapshot_file(file.path(), None).unwrap();
        let loaded = load_file(file.path()).unwrap();
        // Overwritten, then gone: the engine reads the image it kept.
        std::fs::write(&file, b"no longer a snapshot").unwrap();
        assert_eq!(answers(&loaded, &raws), answers(&built, &raws));
        std::fs::remove_file(&file).unwrap();
        assert_eq!(answers(&loaded, &raws), answers(&built, &raws));
        assert!(load_file(file.path()).is_err());
    }

    /// The refactor's proof for built and saved engines: the images of a
    /// fixed dataset under three configurations checksum to the constants
    /// recorded on the trees as they were before `Topology` existed
    /// (PR 21's) — same node ids, same slot order, same bytes.
    #[test]
    fn built_images_are_the_recorded_images() {
        let raws = crate::topology::tests::random_walks(150, 64, 7);
        for (shards, tree, len, checksum) in [
            (1usize, TreeKind::Dbch, 98_888usize, 0xb8f0_3b45_6354_6f17u64),
            (3, TreeKind::Dbch, 99_768, 0xdf18_888e_724f_7278),
            (1, TreeKind::Rtree, 142_976, 0x7abc_ca96_b3fc_69b6),
        ] {
            let image = engine_with(shards, tree, &raws).snapshot_image(None).unwrap();
            let got = (image.len(), sapla_store::image_checksum(&image));
            assert_eq!(got, (len, checksum), "{shards} × {tree:?}: {:#018x}", got.1);
        }
    }

    #[test]
    fn resealed_snapshot_corruption_is_an_error_from_both_loaders() {
        let raws = dataset(20, 64);
        let image = engine_with(2, TreeKind::Dbch, &raws).snapshot_image(None).unwrap();

        // One raw sample of shard 1 is not a number.
        let mut nan = image.clone();
        let at = arena_at(&nan, K_RAW_DATA, 1).start + 8 * (3 * 64 + 5);
        nan[at..at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        reseal(&mut nan);
        assert_eq!(refused(&nan, "NaN sample"), Error::NonFiniteSample { index: 5 });

        // The tree arenas, under either kind of tree.
        for kind in [TreeKind::Dbch, TreeKind::Rtree] {
            tree_corruption_is_refused(kind);
        }

        // The same bytes under a version 1 header.
        let mut v1 = image.clone();
        v1[8..10].copy_from_slice(&1u16.to_le_bytes());
        reseal(&mut v1);
        assert_eq!(refused(&v1, "version 1"), corrupt("unsupported snapshot version"));

        // META's step field, which only the retired quantized writer set
        // to anything but 0.0: it lies after two `u32` tags and five
        // `u64` config words. Negative zero is another bit pattern too.
        let step = arena_at(&image, K_META, 0).start + 8 + 5 * 8;
        assert_eq!(word(&image, step), 0);
        for bad in [(-0.0f64).to_bits(), 1e-3f64.to_bits(), f64::NAN.to_bits(), 1] {
            let mut stepped = image.clone();
            set_word(&mut stepped, step, bad);
            reseal(&mut stepped);
            assert_eq!(
                refused(&stepped, "META step"),
                corrupt("snapshot metadata carries a quantization step"),
                "{bad:#x}"
            );
        }

        // What the store's validation pass owns. Every series here has
        // 64 points and, at `m = 12`, four segments.
        let spans = arena_at(&image, K_REP_SPANS, 0).start;
        let ends = arena_at(&image, K_REP_ENDPOINTS, 0).start;
        assert_eq!(word(&image, spans), 4, "rep 0 has four segments");
        let corrupt_index =
            |mutate: &dyn Fn(&mut [u8]), what: &str| corrupt_index(&image, what, mutate);
        // Rep 0 ends at point 99, not 63: adopted, it would fail every
        // search that reaches it with a `LengthMismatch`.
        let longer = word(&image, ends + 3 * 8) + 36;
        corrupt_index(&|image| set_word(image, ends + 3 * 8, longer), "rep / raw length");
        // A representation without a segment, the total unchanged.
        corrupt_index(
            &|image| {
                set_word(image, spans, 0);
                set_word(image, spans + 8, 8);
            },
            "zero-length span",
        );
        // An endpoint that does not exceed the one before it.
        let stuck = word(&image, ends);
        corrupt_index(&|image| set_word(image, ends + 8, stuck), "stuck endpoint");
        // Spans that do not sum to the coefficient arenas.
        corrupt_index(&|image| set_word(image, spans, 5), "span total");

        // Without the re-seal, the checksum is what refuses them all.
        nan[24] ^= 1;
        assert_eq!(refused(&nan, "unsealed"), corrupt("snapshot checksum mismatch"));
    }
}
