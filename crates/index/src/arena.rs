//! Who owns a tree's data (DESIGN.md §"Search arenas").
//!
//! * [`RepStore`] — the **one** owner of a tree's representations, by
//!   entry id, append-only. When every representation is linear (SAPLA,
//!   APLA, PLA) it is a [`RepArena`]: all coefficients in three
//!   contiguous arrays (`slopes[] / intercepts[] / endpoints[]`) plus one
//!   offset per entry; otherwise (APCA, PAA, PAALM, CHEBY, SAX) a plain
//!   `Vec<Representation>`. Either way [`RepStore::rep`] hands out one
//!   borrowed [`RepRef`], and that is what every reader takes: node
//!   bounds and the leaf filter (planned or plan-less), DBCH hull
//!   construction, the strict `Dist_LB` audit, the snapshot writer.
//!   Insert appends, remove leaves the removed entry's coefficients in
//!   place as an unreferenced hole. A snapshot load fills the arrays
//!   straight from the file's arenas ([`RepArena::adopt`], whose one pass
//!   checks what `PiecewiseLinear::new` checks per series), and a
//!   snapshot write reads them back out — no per-series allocation on
//!   either path.
//! * [`RawArena`] — one engine shard's raw series as one flat run of
//!   `f64`s at a fixed stride, stored in the tree's **leaf-walk order**
//!   behind a `slot_of[id]` map, so the candidates of one leaf are
//!   refined from one contiguous run. Built once per shard: an
//!   [`crate::Engine`] is immutable. A built engine owns the run
//!   ([`RawArena::gather`] copies the caller's series into it); an engine
//!   loaded from a snapshot file *borrows* it from the file image it
//!   keeps alive ([`RawArena::borrowed`]) — the snapshot's raw arena is
//!   this buffer verbatim, so a load neither permutes nor copies it.
//!
//! The search driver reads raw series through [`RawSource`], implemented
//! for `[TimeSeries]` (the public tree APIs) and [`RawView`] — a
//! [`RawArena`] resolved to plain slices once per search, so the hot
//! path is one `slot_of` lookup and one slice whoever owns the samples
//! (the engine).

use std::ops::Range;
use std::sync::Arc;

use sapla_core::{Error, LinearSegment, PiecewiseLinear, Representation, Result, TimeSeries};
use sapla_distance::{SegSource, SoaSegs};
use sapla_store::{view, SnapshotBytes};

use crate::envelope::{SegmentSums, Segments};

/// One representation, borrowed: what [`crate::Scheme`]'s distance
/// methods take as the candidate. A tree hands out views of its store;
/// a caller with a [`Representation`] of its own passes it as `Stored`.
#[derive(Debug, Clone, Copy)]
pub enum RepRef<'a> {
    /// Linear-segment coefficients in a store's flat arrays.
    Linear(SoaSegs<'a>),
    /// A representation held as a value (every non-linear method).
    Stored(&'a Representation),
}

impl RepRef<'_> {
    /// Length of the original series this representation covers.
    #[must_use]
    pub fn series_len(self) -> usize {
        match self {
            RepRef::Linear(view) => view.series_len(),
            RepRef::Stored(rep) => rep.series_len(),
        }
    }

    /// The representation as a value of its own.
    #[must_use]
    pub fn to_representation(self) -> Representation {
        match self {
            RepRef::Linear(view) => {
                let segs = (0..view.count())
                    .map(|i| LinearSegment { a: view.a(i), b: view.b(i), r: view.r(i) })
                    .collect();
                match PiecewiseLinear::new(segs) {
                    Ok(lin) => Representation::Linear(lin),
                    // A view is non-empty with strictly increasing
                    // endpoints: the store's invariant.
                    Err(_) => unreachable!("a store view is a valid segmentation"),
                }
            }
            RepRef::Stored(rep) => rep.clone(),
        }
    }
}

/// Linear-segment coefficients of every entry of one tree, flattened in
/// entry-id order (see module docs). Invariant, kept by [`RepArena::push`]
/// (from a validated [`PiecewiseLinear`]) and [`RepArena::adopt`] (its
/// own pass): `offsets` starts with 0 and is strictly increasing — no
/// entry is empty — ends at the arrays' common length, and within one
/// entry the endpoints are strictly increasing.
#[derive(Debug)]
pub(crate) struct RepArena {
    slopes: Vec<f64>,
    intercepts: Vec<f64>,
    endpoints: Vec<usize>,
    /// Entry `id` is segments `offsets[id]..offsets[id + 1]`.
    offsets: Vec<usize>,
}

impl RepArena {
    /// Append the next entry id's coefficients.
    fn push(&mut self, rep: &PiecewiseLinear) {
        for seg in rep.segments() {
            self.slopes.push(seg.a);
            self.intercepts.push(seg.b);
            self.endpoints.push(seg.r);
        }
        self.offsets.push(self.slopes.len());
    }

    /// Take over coefficient arrays as a snapshot stores them —
    /// `counts[id]` segments per entry, `slopes` / `intercepts`
    /// segment-concatenated, and one inclusive right endpoint per segment —
    /// after the one pass that does for the whole arena what
    /// `PiecewiseLinear::new` does per series.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptIndex`] when the counts do not sum to the arrays'
    /// common length, an entry has no segment, an endpoint does not
    /// exceed the one before it in its entry, or a value overflows.
    pub fn adopt(
        counts: &[u64],
        slopes: Vec<f64>,
        intercepts: Vec<f64>,
        mut words: impl ExactSizeIterator<Item = u64>,
    ) -> Result<RepArena> {
        fn corrupt(reason: &'static str) -> Error {
            Error::CorruptIndex { reason }
        }
        if intercepts.len() != slopes.len() || words.len() != slopes.len() {
            return Err(corrupt("snapshot coefficient arenas disagree in length"));
        }
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut end = 0usize;
        offsets.push(end);
        for &count in counts {
            if count == 0 {
                return Err(corrupt("snapshot representation has no segments"));
            }
            end = usize::try_from(count)
                .ok()
                .and_then(|count| end.checked_add(count))
                .filter(|&end| end <= slopes.len())
                .ok_or_else(|| {
                    corrupt("snapshot coefficient arenas disagree with the rep spans")
                })?;
            offsets.push(end);
        }
        if end != slopes.len() {
            return Err(corrupt("snapshot coefficient arenas disagree with the rep spans"));
        }
        let mut endpoints = Vec::with_capacity(slopes.len());
        for span in offsets.windows(2) {
            let mut prev: Option<u64> = None;
            for r in words.by_ref().take(span[1] - span[0]) {
                if prev.is_some_and(|prev| r <= prev) {
                    return Err(corrupt("snapshot representation has malformed segment endpoints"));
                }
                prev = Some(r);
                endpoints.push(
                    usize::try_from(r)
                        .map_err(|_| corrupt("snapshot segment endpoint overflows"))?,
                );
            }
        }
        Ok(RepArena { slopes, intercepts, endpoints, offsets })
    }

    /// Number of entry ids the arena covers (holes included).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Segment count of every entry, in id order — a snapshot's span arena.
    pub fn counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as u64)
    }

    /// Every slope, segment-concatenated in entry-id order.
    pub fn slopes(&self) -> &[f64] {
        &self.slopes
    }

    /// Every intercept, as [`RepArena::slopes`].
    pub fn intercepts(&self) -> &[f64] {
        &self.intercepts
    }

    /// Every inclusive right endpoint, as [`RepArena::slopes`].
    pub fn endpoints(&self) -> &[usize] {
        &self.endpoints
    }

    /// SoA view of entry `id`.
    #[inline]
    pub fn view(&self, id: usize) -> SoaSegs<'_> {
        let (start, end) = (self.offsets[id], self.offsets[id + 1]);
        match SoaSegs::new(
            &self.slopes[start..end],
            &self.intercepts[start..end],
            &self.endpoints[start..end],
        ) {
            Ok(view) => view,
            // Equal-length slices of a non-empty span: the invariant.
            Err(_) => unreachable!("arena entries are never empty"),
        }
    }
}

/// The representations of one tree, by entry id (see module docs): flat
/// coefficient arrays while every one of them is linear, the values
/// themselves from the first that is not.
#[derive(Debug)]
pub(crate) enum RepStore {
    /// Every entry is piecewise linear.
    Linear(RepArena),
    /// At least one entry is not.
    Stored(Vec<Representation>),
}

impl RepStore {
    /// Take ownership of `reps`, entry-id order; linear ones are
    /// flattened into arrays sized once, in one pass.
    pub fn from_reps(reps: Vec<Representation>) -> RepStore {
        let segments = reps.iter().map(|rep| rep.as_linear().map(PiecewiseLinear::num_segments));
        let Some(segments) = segments.sum::<Option<usize>>() else {
            return RepStore::Stored(reps);
        };
        let mut arena = RepArena {
            slopes: Vec::with_capacity(segments),
            intercepts: Vec::with_capacity(segments),
            endpoints: Vec::with_capacity(segments),
            offsets: Vec::with_capacity(reps.len() + 1),
        };
        arena.offsets.push(0);
        for rep in reps.iter().filter_map(Representation::as_linear) {
            arena.push(rep);
        }
        RepStore::Linear(arena)
    }

    /// Append the next entry id's representation. A linear store that
    /// meets its first non-linear representation turns into a stored one.
    pub fn push(&mut self, rep: Representation) {
        match (&mut *self, rep) {
            (RepStore::Linear(arena), Representation::Linear(lin)) => arena.push(&lin),
            (RepStore::Linear(arena), other) => {
                let mut reps: Vec<Representation> = (0..arena.len())
                    .map(|id| RepRef::Linear(arena.view(id)).to_representation())
                    .collect();
                reps.push(other);
                *self = RepStore::Stored(reps);
            }
            (RepStore::Stored(reps), rep) => reps.push(rep),
        }
    }

    /// Number of entry ids the store covers (holes included).
    pub fn len(&self) -> usize {
        match self {
            RepStore::Linear(arena) => arena.len(),
            RepStore::Stored(reps) => reps.len(),
        }
    }

    /// Entry `id`, borrowed.
    #[inline]
    pub fn rep(&self, id: usize) -> RepRef<'_> {
        match self {
            RepStore::Linear(arena) => RepRef::Linear(arena.view(id)),
            RepStore::Stored(reps) => RepRef::Stored(&reps[id]),
        }
    }

    /// `None` when every representation covers `stride` points, as a
    /// shard's fixed-stride raw arena requires; otherwise the length the
    /// first one that does not covers.
    pub fn length_mismatch(&self, stride: usize) -> Option<usize> {
        (0..self.len()).map(|id| self.rep(id).series_len()).find(|&len| len != stride)
    }
}

/// Read access to raw series by entry id — all the search driver needs
/// for exact refinement.
pub(crate) trait RawSource: Sync {
    /// Samples of series `id`.
    fn raw(&self, id: usize) -> &[f64];
}

impl RawSource for [TimeSeries] {
    #[inline]
    fn raw(&self, id: usize) -> &[f64] {
        self[id].values()
    }
}

/// Where a [`RawArena`]'s samples live.
#[derive(Debug)]
enum Storage {
    /// The arena's own allocation (built engines, and images loaded
    /// from a caller's slice, which cannot be retained).
    Owned(Vec<f64>),
    /// `image[bytes]` of a snapshot image kept alive for the purpose;
    /// checked at construction to view as `f64`s.
    Borrowed { image: Arc<SnapshotBytes>, bytes: Range<usize> },
}

/// One shard's raw series, flat, in leaf-walk order (see module docs).
#[derive(Debug)]
pub(crate) struct RawArena {
    storage: Storage,
    stride: usize,
    /// Entry id → slot; series `id` is `samples()[slot * stride..][..stride]`.
    slot_of: Vec<u32>,
}

/// The slot map of a leaf walk: `order[slot] = id` inverted.
///
/// # Errors
///
/// [`Error::CorruptIndex`] when `order` is not a permutation of
/// `0..order.len()` or does not fit the slot range.
fn slot_map(order: &[usize]) -> Result<Vec<u32>> {
    const NO_SLOT: u32 = u32::MAX;
    let mut slot_of = vec![NO_SLOT; order.len()];
    for (slot, &id) in order.iter().enumerate() {
        let slot = u32::try_from(slot)
            .ok()
            .filter(|&s| s != NO_SLOT)
            .ok_or(Error::CorruptIndex { reason: "shard exceeds the raw arena's slot range" })?;
        match slot_of.get_mut(id) {
            Some(s) if *s == NO_SLOT => *s = slot,
            _ => {
                return Err(Error::CorruptIndex {
                    reason: "leaf walk is not a permutation of the entry ids",
                })
            }
        }
    }
    Ok(slot_of)
}

/// What `TimeSeries::new` checks of every series, over a whole arena of
/// `series` series at `stride` samples each, read-only — fused with the
/// shard's envelope pass ([`crate::envelope`]): each series' segment
/// sums are handed to `fold` in slot order, and the sums are what the
/// finiteness verdict comes from. A NaN or an infinity makes its
/// segment's absolute sum non-finite, so all sums finite means all
/// samples finite; otherwise (a bad sample, or finite samples whose sum
/// overflows) the exact search below says which.
fn check_samples(
    samples: &[f64],
    series: usize,
    stride: usize,
    mut fold: impl FnMut(&SegmentSums),
) -> Result<()> {
    if series.checked_mul(stride) != Some(samples.len()) {
        return Err(Error::CorruptIndex {
            reason: "raw arena length disagrees with its series count and stride",
        });
    }
    if series > 0 && stride == 0 {
        return Err(Error::EmptySeries);
    }
    let segments = Segments::new(stride);
    let mut all_finite = true;
    if stride > 0 {
        for s in samples.chunks_exact(stride) {
            let sums = segments.sums(s);
            all_finite &= sums.finite();
            fold(&sums);
        }
    }
    if all_finite {
        return Ok(());
    }
    match samples.iter().position(|x| !x.is_finite()) {
        Some(at) => Err(Error::NonFiniteSample { index: at % stride }),
        None => Ok(()),
    }
}

impl RawArena {
    /// Copy the series `raw_of(id)` for every id of `order` — a tree's
    /// leaf walk, a permutation of `0..order.len()` — into consecutive
    /// slots of an owned buffer.
    ///
    /// # Errors
    ///
    /// [`Error::LengthMismatch`] when the series differ in length (the
    /// stride is fixed); [`Error::CorruptIndex`] when `order` is not a
    /// permutation or does not fit the slot map.
    pub fn gather<'a>(order: &[usize], raw_of: impl Fn(usize) -> &'a [f64]) -> Result<RawArena> {
        let slot_of = slot_map(order)?;
        let stride = order.first().map_or(0, |&id| raw_of(id).len());
        let mut data = Vec::with_capacity(order.len() * stride);
        for &id in order {
            let raw = raw_of(id);
            if raw.len() != stride {
                return Err(Error::LengthMismatch { left: stride, right: raw.len() });
            }
            data.extend_from_slice(raw);
        }
        Ok(RawArena { storage: Storage::Owned(data), stride, slot_of })
    }

    /// Adopt `samples`, already in the slot order of `order` (a tree's
    /// leaf walk) at `stride` samples a series — a snapshot's raw arena —
    /// with one bulk copy and no permutation. The sample check hands
    /// every series' segment sums to `fold`, in slot order.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptIndex`] when `order` is not a permutation or the
    /// arena's length is not `order.len() * stride`;
    /// [`Error::EmptySeries`] / [`Error::NonFiniteSample`] when a series
    /// would not make a `TimeSeries`.
    pub fn copied(
        order: &[usize],
        stride: usize,
        samples: &[f64],
        fold: impl FnMut(&SegmentSums),
    ) -> Result<RawArena> {
        let slot_of = slot_map(order)?;
        check_samples(samples, order.len(), stride, fold)?;
        Ok(RawArena { storage: Storage::Owned(samples.to_vec()), stride, slot_of })
    }

    /// [`RawArena::copied`] without the copy: the samples stay where
    /// they are, in `image[bytes]`, and the arena keeps `image` alive.
    ///
    /// # Errors
    ///
    /// As [`RawArena::copied`], plus [`Error::CorruptIndex`] when
    /// `bytes` is not a range of `image` that views as `f64`s.
    pub fn borrowed(
        order: &[usize],
        stride: usize,
        image: &Arc<SnapshotBytes>,
        bytes: Range<usize>,
        fold: impl FnMut(&SegmentSums),
    ) -> Result<RawArena> {
        let slot_of = slot_map(order)?;
        let samples = image
            .bytes()
            .get(bytes.clone())
            .ok_or(Error::CorruptIndex { reason: "raw arena lies outside the snapshot image" })?;
        check_samples(view::f64s(samples)?, order.len(), stride, fold)?;
        let storage = Storage::Borrowed { image: Arc::clone(image), bytes };
        Ok(RawArena { storage, stride, slot_of })
    }

    /// Number of series held.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Samples per series.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Every sample, series-concatenated in slot (leaf-walk) order —
    /// what a snapshot stores.
    pub fn samples(&self) -> &[f64] {
        match &self.storage {
            Storage::Owned(data) => data,
            // The constructor proved this range views as `f64`s, and
            // neither the image nor the range changes afterwards; the
            // view is re-derived (two checks and a cast) because a
            // borrow of the `Arc`'s contents cannot be stored beside it.
            Storage::Borrowed { image, bytes } => {
                image.bytes().get(bytes.clone()).and_then(|b| view::f64s(b).ok()).unwrap_or(&[])
            }
        }
    }

    /// The arena resolved to plain slices for the duration of a search:
    /// wherever the samples live is looked up here, once, and not per
    /// refined candidate.
    pub fn view(&self) -> RawView<'_> {
        RawView { samples: self.samples(), stride: self.stride, slot_of: &self.slot_of }
    }
}

/// A [`RawArena`] as the search driver reads it (see [`RawArena::view`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawView<'a> {
    samples: &'a [f64],
    stride: usize,
    slot_of: &'a [u32],
}

impl RawSource for RawView<'_> {
    #[inline]
    fn raw(&self, id: usize) -> &[f64] {
        // audit: cast_ok — u32 → usize widens on every supported target.
        let at = self.slot_of[id] as usize * self.stride;
        &self.samples[at..at + self.stride]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapla_core::{ConstantSegment, LinearSegment, PiecewiseConstant, PiecewiseLinear};

    fn lin(coeffs: &[(f64, f64, usize)]) -> Representation {
        Representation::Linear(
            PiecewiseLinear::new(
                coeffs.iter().map(|&(a, b, r)| LinearSegment { a, b, r }).collect(),
            )
            .unwrap(),
        )
    }

    /// Bitwise equality of two representations (`==` on `f64` would let
    /// `-0.0` pass for `0.0`).
    fn same_bits(a: &Representation, b: &Representation) -> bool {
        match (a, b) {
            (Representation::Linear(a), Representation::Linear(b)) => {
                a.num_segments() == b.num_segments()
                    && a.segments().iter().zip(b.segments()).all(|(x, y)| {
                        (x.a.to_bits(), x.b.to_bits(), x.r) == (y.a.to_bits(), y.b.to_bits(), y.r)
                    })
            }
            _ => a == b,
        }
    }

    fn holds(store: &RepStore, reps: &[Representation]) -> bool {
        store.len() == reps.len()
            && reps.iter().enumerate().all(|(id, rep)| {
                let got = store.rep(id);
                got.series_len() == rep.series_len() && same_bits(&got.to_representation(), rep)
            })
    }

    #[test]
    fn rep_arena_views_follow_entry_ids_and_appends() {
        let linear = vec![
            lin(&[(1.0, 0.0, 3), (-0.0, 4.0, 7)]),
            lin(&[(-1.0, 2.0, 2), (2.0, 0.0, 5), (0.0, 1.0, 7)]),
        ];
        let mut store = RepStore::from_reps(linear.clone());
        let RepStore::Linear(arena) = &store else { panic!("every rep is linear") };
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.view(0).count(), 2);
        assert_eq!((arena.view(1).count(), arena.view(1).series_len()), (3, 8));
        assert_eq!(arena.counts().collect::<Vec<_>>(), [2, 3]);
        assert!(holds(&store, &linear));
        assert_eq!(store.length_mismatch(8), None);
        assert_eq!(store.length_mismatch(7), Some(8));

        let mut all = linear;
        all.push(lin(&[(0.5, 1.0, 7)]));
        store.push(all[2].clone());
        assert!(matches!(store, RepStore::Linear(_)));
        assert!(holds(&store, &all), "appending never moves earlier entries");

        // The first non-linear entry turns the arena into stored values,
        // every earlier entry intact.
        all.push(Representation::Constant(
            PiecewiseConstant::new(vec![ConstantSegment { v: 1.0, r: 6 }]).unwrap(),
        ));
        store.push(all[3].clone());
        assert!(matches!(store, RepStore::Stored(_)));
        all.push(lin(&[(0.0, 0.0, 7)]));
        store.push(all[4].clone());
        assert!(holds(&store, &all));
        assert_eq!(store.length_mismatch(8), Some(7));
        assert!(matches!(RepStore::from_reps(all), RepStore::Stored(_)));
        assert!(matches!(RepStore::from_reps(vec![]), RepStore::Linear(_)));
    }

    #[test]
    fn store_returns_what_every_reducer_produced_built_appended_or_adopted() {
        let series: Vec<TimeSeries> = (0..7)
            .map(|i| {
                let values = (0..48).map(|t| ((t * (i + 2)) as f64 * 0.23).sin() * 2.0 - i as f64);
                TimeSeries::new(values.collect()).unwrap()
            })
            .collect();
        for reducer in sapla_baselines::all_reducers() {
            let reps: Vec<Representation> = series
                .iter()
                .enumerate()
                .map(|(i, s)| reducer.reduce(s, 6 + 6 * (i % 3)).unwrap())
                .collect();
            let built = RepStore::from_reps(reps.clone());
            assert!(holds(&built, &reps), "{}", reducer.name());
            assert_eq!(built.length_mismatch(48), None, "{}", reducer.name());
            let mut appended = RepStore::from_reps(reps[..3].to_vec());
            for rep in &reps[3..] {
                appended.push(rep.clone());
            }
            assert!(holds(&appended, &reps), "{} after appends", reducer.name());

            // A linear store written to snapshot arrays and adopted back
            // has the views of the one flattened from the reps.
            let RepStore::Linear(arena) = &built else {
                assert!(reps.iter().all(|rep| rep.as_linear().is_none()), "{}", reducer.name());
                continue;
            };
            let counts: Vec<u64> = arena.counts().collect();
            let adopted = RepArena::adopt(
                &counts,
                arena.slopes().to_vec(),
                arena.intercepts().to_vec(),
                arena.endpoints().iter().map(|&r| r as u64),
            )
            .unwrap();
            assert!(holds(&RepStore::Linear(adopted), &reps), "{}", reducer.name());
        }
    }

    #[test]
    fn adoption_refuses_what_piecewise_linear_new_refuses() {
        let adopt = |counts: &[u64], coeffs: usize, words: &[u64]| {
            let (slopes, intercepts) = (vec![0.5; coeffs], vec![1.0; coeffs]);
            RepArena::adopt(counts, slopes, intercepts, words.iter().copied())
                .map(|arena| arena.len())
        };
        assert_eq!(adopt(&[2, 1], 3, &[3, 7, 7]), Ok(2));
        assert_eq!(adopt(&[], 0, &[]), Ok(0));
        let refused = |counts: &[u64], coeffs: usize, words: &[u64]| {
            assert!(
                matches!(adopt(counts, coeffs, words), Err(Error::CorruptIndex { .. })),
                "{counts:?} over {coeffs} coefficients, endpoints {words:?}"
            );
        };
        // Spans that do not sum to the arrays, in either direction.
        refused(&[2, 2], 3, &[3, 7, 7]);
        refused(&[2], 3, &[3, 7, 7]);
        refused(&[u64::MAX, 2], 3, &[3, 7, 7]);
        refused(&[], 1, &[3]);
        // An endpoint array of another length than the coefficients.
        refused(&[2, 1], 3, &[3, 7]);
        // A representation without a segment.
        refused(&[3, 0], 3, &[3, 5, 7]);
        // Endpoints that do not increase inside one representation.
        refused(&[2, 1], 3, &[7, 7, 7]);
        refused(&[3], 3, &[3, 7, 5]);
    }

    #[test]
    fn raw_arena_stores_leaf_order_and_answers_by_id() {
        let series: Vec<TimeSeries> =
            (0..4).map(|i| TimeSeries::new(vec![i as f64, i as f64 + 0.5]).unwrap()).collect();
        let arena = RawArena::gather(&[2, 0, 3, 1], |id| series[id].values()).unwrap();
        assert_eq!((arena.len(), arena.stride()), (4, 2));
        assert_eq!(arena.samples(), [2.0, 2.5, 0.0, 0.5, 3.0, 3.5, 1.0, 1.5]);
        for (id, s) in series.iter().enumerate() {
            assert_eq!(arena.view().raw(id), s.values());
            assert_eq!(series.raw(id), s.values());
        }
        assert_eq!(RawArena::gather(&[], |_| &[][..]).unwrap().len(), 0);
    }

    #[test]
    fn raw_arena_rejects_mixed_lengths_and_non_permutations() {
        let series =
            [TimeSeries::new(vec![1.0, 2.0]).unwrap(), TimeSeries::new(vec![1.0]).unwrap()];
        assert_eq!(
            RawArena::gather(&[0, 1], |id| series[id].values()).unwrap_err(),
            Error::LengthMismatch { left: 2, right: 1 }
        );
        for order in [&[0usize, 0][..], &[0, 2]] {
            assert!(matches!(
                RawArena::gather(order, |_| series[0].values()),
                Err(Error::CorruptIndex { .. })
            ));
        }
    }

    /// A stand-in snapshot image: `pad` bytes, then `samples` as
    /// little-endian `f64`s. Returns the image and the samples' range.
    fn image_of(pad: usize, samples: &[f64]) -> (Arc<SnapshotBytes>, Range<usize>) {
        let mut bytes = vec![0xAAu8; pad];
        sapla_store::put_f64s(&mut bytes, samples.iter().copied());
        (Arc::new(SnapshotBytes::from_slice(&bytes)), pad..bytes.len())
    }

    #[test]
    fn adopted_arenas_answer_like_a_gathered_one_copied_or_borrowed() {
        let series: Vec<TimeSeries> =
            (0..4).map(|i| TimeSeries::new(vec![i as f64, i as f64 + 0.5]).unwrap()).collect();
        let order = [2usize, 0, 3, 1];
        let gathered = RawArena::gather(&order, |id| series[id].values()).unwrap();
        let (image, at) = image_of(64, gathered.samples());
        let copied = RawArena::copied(&order, 2, gathered.samples(), |_| ()).unwrap();
        let borrowed = RawArena::borrowed(&order, 2, &image, at, |_| ()).unwrap();
        assert_eq!(Arc::strong_count(&image), 2, "the borrowing arena retains the image");
        drop(image);
        for arena in [&copied, &borrowed] {
            assert_eq!((arena.len(), arena.stride()), (4, 2));
            assert_eq!(arena.samples(), gathered.samples());
            for (id, s) in series.iter().enumerate() {
                assert_eq!(arena.view().raw(id), s.values());
            }
        }
        // No series at all: nothing to view, nothing to index.
        let (image, at) = image_of(64, &[]);
        for empty in [
            RawArena::copied(&[], 0, &[], |_| ()).unwrap(),
            RawArena::borrowed(&[], 0, &image, at, |_| ()).unwrap(),
        ] {
            assert_eq!((empty.len(), empty.samples().len()), (0, 0));
        }
    }

    #[test]
    fn adoption_checks_the_walk_the_length_and_every_sample() {
        let good = [1.0, 2.0, 3.0, 4.0];
        let check = |order: &[usize], stride: usize, samples: &[f64]| {
            let (image, at) = image_of(8, samples);
            let copied = RawArena::copied(order, stride, samples, |_| ()).map(|_| ()).unwrap_err();
            let borrowed =
                RawArena::borrowed(order, stride, &image, at, |_| ()).map(|_| ()).unwrap_err();
            assert_eq!(copied, borrowed, "both constructors run the same checks");
            copied
        };
        assert!(matches!(check(&[0, 0], 2, &good), Error::CorruptIndex { .. }));
        assert!(matches!(check(&[0, 2], 2, &good), Error::CorruptIndex { .. }));
        assert!(matches!(check(&[1, 0], 3, &good), Error::CorruptIndex { .. }));
        assert!(matches!(check(&[0, 1], usize::MAX, &good), Error::CorruptIndex { .. }));
        assert_eq!(check(&[0, 1], 0, &[]), Error::EmptySeries);
        assert_eq!(
            check(&[1, 0], 2, &[1.0, 2.0, 3.0, f64::NAN]),
            Error::NonFiniteSample { index: 1 }
        );
        assert_eq!(check(&[0], 2, &[f64::INFINITY, 0.0]), Error::NonFiniteSample { index: 0 });
        // A range that is not inside the image, or not `f64`-aligned in it.
        let (image, at) = image_of(8, &good);
        for bytes in [at.start..at.end + 8, at.start + 4..at.end - 4, at.start + 1..at.end] {
            assert!(matches!(
                RawArena::borrowed(&[0, 1], 2, &image, bytes, |_| ()),
                Err(Error::CorruptIndex { .. })
            ));
        }
    }
}
