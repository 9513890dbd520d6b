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
//! * [`RawArena`] — one engine shard's raw series in a single `Vec<f64>`
//!   at a fixed stride, stored in the tree's **leaf-walk order** behind a
//!   `slot_of[id]` map, so the candidates of one leaf are refined from
//!   one contiguous run. Built once per shard: an [`crate::Engine`] is
//!   immutable.
//!
//! The search driver reads raw series through [`RawSource`], implemented
//! for `[TimeSeries]` (the public tree APIs) and [`RawArena`] (the
//! engine).

use sapla_core::{Error, Representation, Result, TimeSeries};
use sapla_distance::SoaSegs;

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

/// One shard's raw series, flat, in leaf-walk order (see module docs).
#[derive(Debug)]
pub(crate) struct RawArena {
    data: Vec<f64>,
    stride: usize,
    /// Entry id → slot; series `id` is `data[slot * stride..][..stride]`.
    slot_of: Vec<u32>,
}

impl RawArena {
    /// Copy the series `raw_of(id)` for every id of `order` — a tree's
    /// leaf walk, a permutation of `0..order.len()` — into consecutive
    /// slots. `raw_of` may fail (a loader validates each series as it
    /// hands it over, while it is cache-hot for the copy).
    ///
    /// # Errors
    ///
    /// The first `raw_of` failure; [`Error::LengthMismatch`] when the
    /// series differ in length (the stride is fixed);
    /// [`Error::CorruptIndex`] when `order` is not a permutation or does
    /// not fit the slot map.
    pub fn gather<'a>(
        order: &[usize],
        raw_of: impl Fn(usize) -> Result<&'a [f64]>,
    ) -> Result<RawArena> {
        const NO_SLOT: u32 = u32::MAX;
        let n = order.len();
        let stride = match order.first() {
            Some(&id) => raw_of(id)?.len(),
            None => 0,
        };
        let mut data = Vec::with_capacity(n * stride);
        let mut slot_of = vec![NO_SLOT; n];
        for (slot, &id) in order.iter().enumerate() {
            let slot =
                u32::try_from(slot).ok().filter(|&s| s != NO_SLOT).ok_or(Error::CorruptIndex {
                    reason: "shard exceeds the raw arena's slot range",
                })?;
            match slot_of.get_mut(id) {
                Some(s) if *s == NO_SLOT => *s = slot,
                _ => {
                    return Err(Error::CorruptIndex {
                        reason: "leaf walk is not a permutation of the entry ids",
                    })
                }
            }
            let raw = raw_of(id)?;
            if raw.len() != stride {
                return Err(Error::LengthMismatch { left: stride, right: raw.len() });
            }
            data.extend_from_slice(raw);
        }
        Ok(RawArena { data, stride, slot_of })
    }

    /// Number of series held.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }
}

impl RawSource for RawArena {
    #[inline]
    fn raw(&self, id: usize) -> &[f64] {
        // audit: cast_ok — u32 → usize widens on every supported target.
        let at = self.slot_of[id] as usize * self.stride;
        &self.data[at..at + self.stride]
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
        let arena = RawArena::gather(&[2, 0, 3, 1], |id| Ok(series[id].values())).unwrap();
        assert_eq!(arena.len(), 4);
        assert_eq!(arena.data, [2.0, 2.5, 0.0, 0.5, 3.0, 3.5, 1.0, 1.5]);
        for (id, s) in series.iter().enumerate() {
            assert_eq!(arena.raw(id), s.values());
            assert_eq!(series.raw(id), s.values());
        }
        assert_eq!(RawArena::gather(&[], |_| Ok(&[][..])).unwrap().len(), 0);
    }

    #[test]
    fn raw_arena_rejects_mixed_lengths_and_non_permutations() {
        let series =
            [TimeSeries::new(vec![1.0, 2.0]).unwrap(), TimeSeries::new(vec![1.0]).unwrap()];
        assert_eq!(
            RawArena::gather(&[0, 1], |id| Ok(series[id].values())).unwrap_err(),
            Error::LengthMismatch { left: 2, right: 1 }
        );
        for order in [&[0usize, 0][..], &[0, 2]] {
            assert!(matches!(
                RawArena::gather(order, |_| Ok(series[0].values())),
                Err(Error::CorruptIndex { .. })
            ));
        }
        assert_eq!(
            RawArena::gather(&[0], |_| Err(Error::EmptySeries)).unwrap_err(),
            Error::EmptySeries,
            "a loader's validation failure surfaces unchanged"
        );
    }
}
