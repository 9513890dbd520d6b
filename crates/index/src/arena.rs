//! The two flat arenas the search hot path reads (DESIGN.md §"Search
//! arenas").
//!
//! * [`RepArena`] — every indexed representation's linear-segment
//!   coefficients in three contiguous arrays (`slopes[] / intercepts[] /
//!   endpoints[]`) plus one span per entry, **in entry-id order and
//!   append-only**. One per tree. DBCH node bounds and the leaf filter of
//!   both trees feed arena views to the planned `Dist_PAR` kernel; the
//!   stored [`Representation`]s are walked only by plan-less queries and
//!   non-linear schemes (the oracle the equivalence tests compare
//!   against). Insert appends, remove leaves the removed entry's
//!   coefficients in place as an unreferenced hole, so the arena is
//!   coherent by construction — there is nothing to refresh.
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

use sapla_core::{Error, Representation, Result, TimeSeries};
use sapla_distance::SoaSegs;
use sapla_store::{view, SnapshotBytes};

/// Linear-segment coefficients of every entry of one tree, flattened in
/// entry-id order (see module docs). Entries without a linear
/// representation get an empty span and no view.
#[derive(Debug)]
pub(crate) struct RepArena {
    slopes: Vec<f64>,
    intercepts: Vec<f64>,
    endpoints: Vec<usize>,
    /// Per entry id: `(first segment, segment count)`.
    spans: Vec<(usize, usize)>,
}

impl RepArena {
    /// Flatten `reps` (entry-id order) in one pass.
    pub fn from_reps(reps: &[Representation]) -> RepArena {
        let segments = reps.iter().map(|r| r.as_linear().map_or(0, |l| l.num_segments())).sum();
        let mut arena = RepArena {
            slopes: Vec::with_capacity(segments),
            intercepts: Vec::with_capacity(segments),
            endpoints: Vec::with_capacity(segments),
            spans: Vec::with_capacity(reps.len()),
        };
        for rep in reps {
            arena.push(rep);
        }
        arena
    }

    /// Append the next entry id's coefficients.
    pub fn push(&mut self, rep: &Representation) {
        let start = self.slopes.len();
        if let Some(lin) = rep.as_linear() {
            for seg in lin.segments() {
                self.slopes.push(seg.a);
                self.intercepts.push(seg.b);
                self.endpoints.push(seg.r);
            }
        }
        self.spans.push((start, self.slopes.len() - start));
    }

    /// Number of entry ids the arena covers (holes included).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// SoA view of entry `id`; `None` for a non-linear entry.
    #[inline]
    pub fn view(&self, id: usize) -> Option<SoaSegs<'_>> {
        let (start, len) = self.spans[id];
        let end = start + len;
        // An empty span fails the view's shape check: no view.
        SoaSegs::new(
            &self.slopes[start..end],
            &self.intercepts[start..end],
            &self.endpoints[start..end],
        )
        .ok()
    }

    /// Whether entry `id`'s view mirrors `rep` coefficient for
    /// coefficient (bitwise) — the integrity check behind the trees'
    /// `validate`.
    pub fn mirrors(&self, id: usize, rep: &Representation) -> bool {
        let Some(&(_, len)) = self.spans.get(id) else { return false };
        match (rep.as_linear(), self.view(id)) {
            (None, _) => len == 0,
            (Some(_), None) => false,
            (Some(lin), Some(view)) => {
                view.num_segments() == lin.num_segments()
                    && lin.segments().iter().enumerate().all(|(i, seg)| {
                        let (a, b, r) = view.seg(i);
                        a.to_bits() == seg.a.to_bits()
                            && b.to_bits() == seg.b.to_bits()
                            && r == seg.r
                    })
            }
        }
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
/// `series` series at `stride` samples each, read-only.
fn check_samples(samples: &[f64], series: usize, stride: usize) -> Result<()> {
    if series.checked_mul(stride) != Some(samples.len()) {
        return Err(Error::CorruptIndex {
            reason: "raw arena length disagrees with its series count and stride",
        });
    }
    if series > 0 && stride == 0 {
        return Err(Error::EmptySeries);
    }
    // `x - x` is +0.0 — all bits clear — for every finite `x` and NaN for
    // the rest. OR-ing the bits has neither an early exit nor an order,
    // so the pass vectorizes and runs at memory speed, where a search
    // for the first non-finite sample is compute-bound (64 MB: 7 ms
    // against 14).
    #[allow(clippy::eq_op)]
    let all_finite = samples.iter().fold(0u64, |bits, x| bits | (x - x).to_bits()) == 0;
    if all_finite {
        return Ok(());
    }
    let at = samples.iter().position(|x| !x.is_finite()).unwrap_or(0);
    Err(Error::NonFiniteSample { index: at % stride })
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
    /// with one bulk copy and no permutation.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptIndex`] when `order` is not a permutation or the
    /// arena's length is not `order.len() * stride`;
    /// [`Error::EmptySeries`] / [`Error::NonFiniteSample`] when a series
    /// would not make a `TimeSeries`.
    pub fn copied(order: &[usize], stride: usize, samples: &[f64]) -> Result<RawArena> {
        let slot_of = slot_map(order)?;
        check_samples(samples, order.len(), stride)?;
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
    ) -> Result<RawArena> {
        let slot_of = slot_map(order)?;
        let samples = image
            .bytes()
            .get(bytes.clone())
            .ok_or(Error::CorruptIndex { reason: "raw arena lies outside the snapshot image" })?;
        check_samples(view::f64s(samples)?, order.len(), stride)?;
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

    #[test]
    fn rep_arena_views_follow_entry_ids_and_appends() {
        let reps = vec![
            lin(&[(1.0, 0.0, 3), (0.0, 4.0, 7)]),
            Representation::Constant(
                PiecewiseConstant::new(vec![ConstantSegment { v: 1.0, r: 7 }]).unwrap(),
            ),
            lin(&[(-1.0, 2.0, 2), (2.0, 0.0, 5), (0.0, 1.0, 7)]),
        ];
        let mut arena = RepArena::from_reps(&reps);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.view(0).unwrap().num_segments(), 2);
        assert!(arena.view(1).is_none(), "non-linear entries have no view");
        let v2 = arena.view(2).unwrap();
        assert_eq!((v2.num_segments(), v2.series_len()), (3, 8));
        assert!(reps.iter().enumerate().all(|(id, rep)| arena.mirrors(id, rep)));
        assert!(!arena.mirrors(0, &reps[2]));
        assert!(!arena.mirrors(1, &reps[0]));
        assert!(!arena.mirrors(3, &reps[0]), "ids past the arena mirror nothing");

        let extra = lin(&[(0.5, 1.0, 7)]);
        arena.push(&extra);
        assert!(arena.mirrors(3, &extra));
        assert!(arena.mirrors(0, &reps[0]), "appending never moves earlier entries");
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
        let copied = RawArena::copied(&order, 2, gathered.samples()).unwrap();
        let borrowed = RawArena::borrowed(&order, 2, &image, at).unwrap();
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
            RawArena::copied(&[], 0, &[]).unwrap(),
            RawArena::borrowed(&[], 0, &image, at).unwrap(),
        ] {
            assert_eq!((empty.len(), empty.samples().len()), (0, 0));
        }
    }

    #[test]
    fn adoption_checks_the_walk_the_length_and_every_sample() {
        let good = [1.0, 2.0, 3.0, 4.0];
        let check = |order: &[usize], stride: usize, samples: &[f64]| {
            let (image, at) = image_of(8, samples);
            let copied = RawArena::copied(order, stride, samples).map(|_| ()).unwrap_err();
            let borrowed = RawArena::borrowed(order, stride, &image, at).map(|_| ()).unwrap_err();
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
                RawArena::borrowed(&[0, 1], 2, &image, bytes),
                Err(Error::CorruptIndex { .. })
            ));
        }
    }
}
