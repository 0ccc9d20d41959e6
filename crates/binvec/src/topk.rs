//! Exact top-k selection over (id, distance) pairs.
//!
//! Every platform in the paper ultimately reduces per-vector distances to the k
//! smallest: the CPU baseline uses priority-queue insertion (`O(n log k)`), the FPGA
//! accelerator has a hardware priority queue, and the AP performs the temporally
//! encoded sort whose decoded output is merged with a host-side [`TopK`] across board
//! reconfigurations. This module provides the shared, well-tested selection primitive
//! with deterministic tie-breaking so that all engines can be compared result-for-
//! result.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A candidate neighbor: a dataset vector id and its distance to the query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Neighbor {
    /// Index of the dataset vector.
    pub id: usize,
    /// Distance (Hamming) from the query to that vector.
    pub distance: u32,
}

impl Neighbor {
    /// Convenience constructor.
    pub fn new(id: usize, distance: u32) -> Self {
        Self { id, distance }
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    /// Orders by distance, then by id. Lower is "better" (closer).
    fn cmp(&self, other: &Self) -> Ordering {
        self.distance
            .cmp(&other.distance)
            .then(self.id.cmp(&other.id))
    }
}

/// A bounded max-heap keeping the `k` smallest-distance neighbors seen so far.
///
/// Ties on distance are broken by preferring smaller ids, which makes every engine in
/// the workspace produce byte-identical result sets for the same input — essential for
/// the equivalence tests between the AP simulation and the brute-force baseline.
#[derive(Clone, Debug)]
pub struct TopK {
    k: usize,
    heap: BinaryHeap<Neighbor>,
}

impl TopK {
    /// Creates an empty selector for the `k` nearest neighbors.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The `k` this selector was created with.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidates currently held (≤ k).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no candidates have been offered yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offers a candidate; keeps it only if it is among the k best seen so far.
    ///
    /// Returns `true` if the candidate was retained. Once `k` are held, a better
    /// candidate overwrites the worst in place, so the heap pays one sift-down
    /// rather than a pop and a push. Inlined, since every engine calls it once
    /// per distance.
    #[inline]
    pub fn offer(&mut self, candidate: Neighbor) -> bool {
        if self.heap.len() < self.k {
            self.heap.push(candidate);
            return true;
        }
        match self.heap.peek_mut() {
            Some(mut worst) if candidate < *worst => {
                *worst = candidate;
                true
            }
            _ => false,
        }
    }

    /// The current k-th best (i.e. worst retained) candidate, if `k` are held.
    pub fn threshold(&self) -> Option<Neighbor> {
        if self.heap.len() == self.k {
            self.heap.peek().copied()
        } else {
            None
        }
    }

    /// Merges another selector's retained candidates into this one.
    ///
    /// Used by the partial-reconfiguration engine to combine per-board-configuration
    /// partial results, and by multi-threaded baselines to combine per-thread results.
    pub fn merge(&mut self, other: &TopK) {
        for n in other.heap.iter() {
            self.offer(*n);
        }
    }

    /// Clears the selector and re-arms it for `k` neighbors, keeping the heap
    /// allocation — the pooled serving hot path resets accumulators between
    /// batches instead of re-allocating them.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn reset(&mut self, k: usize) {
        assert!(k > 0, "k must be positive");
        self.k = k;
        self.heap.clear();
        // No-op once the heap has ever been sized for this k.
        self.heap.reserve(k + 1);
    }

    /// Drains the retained neighbors, sorted by (distance, id) ascending, into
    /// `out` (cleared first). Both the heap's and `out`'s allocations survive,
    /// so repeated batches reuse them.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<Neighbor>) {
        out.clear();
        out.extend(self.heap.drain());
        out.sort_unstable();
    }

    /// Consumes the selector and returns the retained neighbors sorted by
    /// (distance, id) ascending.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = self.heap.into_vec();
        v.sort_unstable();
        v
    }

    /// Returns the retained neighbors sorted ascending without consuming.
    pub fn sorted(&self) -> Vec<Neighbor> {
        let mut v: Vec<Neighbor> = self.heap.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

/// Selects the `k` nearest neighbors from an iterator of candidates.
pub fn select_k<I>(k: usize, candidates: I) -> Vec<Neighbor>
where
    I: IntoIterator<Item = Neighbor>,
{
    let mut topk = TopK::new(k);
    for c in candidates {
        topk.offer(c);
    }
    topk.into_sorted()
}

/// Fully sorts candidates by (distance, id); reference implementation for tests and
/// for the "sort everything" von-Neumann baseline the paper contrasts against.
pub fn full_sort(mut candidates: Vec<Neighbor>) -> Vec<Neighbor> {
    candidates.sort_unstable();
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_ordering_breaks_ties_by_id() {
        let a = Neighbor::new(3, 5);
        let b = Neighbor::new(7, 5);
        assert!(a < b);
        assert!(Neighbor::new(7, 4) < a);
    }

    #[test]
    fn select_k_smallest() {
        let candidates = vec![
            Neighbor::new(0, 9),
            Neighbor::new(1, 2),
            Neighbor::new(2, 7),
            Neighbor::new(3, 2),
            Neighbor::new(4, 1),
        ];
        let got = select_k(3, candidates);
        assert_eq!(
            got,
            vec![
                Neighbor::new(4, 1),
                Neighbor::new(1, 2),
                Neighbor::new(3, 2)
            ]
        );
    }

    #[test]
    fn fewer_candidates_than_k() {
        let got = select_k(10, vec![Neighbor::new(5, 3), Neighbor::new(2, 1)]);
        assert_eq!(got, vec![Neighbor::new(2, 1), Neighbor::new(5, 3)]);
    }

    #[test]
    fn offer_reports_retention() {
        let mut t = TopK::new(2);
        assert!(t.offer(Neighbor::new(0, 10)));
        assert!(t.offer(Neighbor::new(1, 5)));
        assert!(t.offer(Neighbor::new(2, 1))); // evicts (0,10)
        assert!(!t.offer(Neighbor::new(3, 20)));
        assert_eq!(t.sorted(), vec![Neighbor::new(2, 1), Neighbor::new(1, 5)]);
    }

    #[test]
    fn threshold_only_when_full() {
        let mut t = TopK::new(2);
        t.offer(Neighbor::new(0, 4));
        assert_eq!(t.threshold(), None);
        t.offer(Neighbor::new(1, 9));
        assert_eq!(t.threshold(), Some(Neighbor::new(1, 9)));
    }

    #[test]
    fn merge_equals_single_pass() {
        let all: Vec<Neighbor> = (0..50)
            .map(|i| Neighbor::new(i, (i * 7 % 23) as u32))
            .collect();
        let expected = select_k(5, all.clone());

        let mut left = TopK::new(5);
        let mut right = TopK::new(5);
        for (i, n) in all.into_iter().enumerate() {
            if i % 2 == 0 {
                left.offer(n);
            } else {
                right.offer(n);
            }
        }
        left.merge(&right);
        assert_eq!(left.into_sorted(), expected);
    }

    #[test]
    fn full_sort_sorts_by_distance_then_id() {
        let sorted = full_sort(vec![
            Neighbor::new(2, 3),
            Neighbor::new(1, 3),
            Neighbor::new(0, 1),
        ]);
        assert_eq!(
            sorted,
            vec![
                Neighbor::new(0, 1),
                Neighbor::new(1, 3),
                Neighbor::new(2, 3)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = TopK::new(0);
    }

    #[test]
    fn reset_and_drain_reuse_matches_fresh_selection() {
        let candidates: Vec<Neighbor> = (0..40)
            .map(|i| Neighbor::new(i, (i * 13 % 17) as u32))
            .collect();
        let mut pooled = TopK::new(3);
        let mut out = Vec::new();
        for k in [3usize, 5, 2, 5] {
            pooled.reset(k);
            assert_eq!(pooled.k(), k);
            assert!(pooled.is_empty(), "reset must clear retained candidates");
            for &c in &candidates {
                pooled.offer(c);
            }
            pooled.drain_sorted_into(&mut out);
            assert_eq!(out, select_k(k, candidates.iter().copied()), "k = {k}");
            assert!(pooled.is_empty(), "drain must empty the selector");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn select_k_matches_full_sort_prefix(
            dists in prop::collection::vec(0u32..64, 1..200),
            k in 1usize..20,
        ) {
            let candidates: Vec<Neighbor> =
                dists.iter().enumerate().map(|(i, &d)| Neighbor::new(i, d)).collect();
            let selected = select_k(k, candidates.clone());
            let sorted = full_sort(candidates);
            let expect: Vec<Neighbor> = sorted.into_iter().take(k).collect();
            prop_assert_eq!(selected, expect);
        }

        #[test]
        fn merge_is_order_independent(
            dists in prop::collection::vec(0u32..64, 1..100),
            k in 1usize..10,
            split in 0usize..100,
        ) {
            let candidates: Vec<Neighbor> =
                dists.iter().enumerate().map(|(i, &d)| Neighbor::new(i, d)).collect();
            let split = split.min(candidates.len());
            let (a, b) = candidates.split_at(split);

            let mut ta = TopK::new(k);
            for n in a { ta.offer(*n); }
            let mut tb = TopK::new(k);
            for n in b { tb.offer(*n); }

            let mut ab = ta.clone();
            ab.merge(&tb);
            let mut ba = tb.clone();
            ba.merge(&ta);

            let union = select_k(k, candidates.iter().copied());
            prop_assert_eq!(ab.into_sorted(), union.clone());
            prop_assert_eq!(ba.into_sorted(), union);
        }

        // Distances in 0..4 make ties the rule, k runs past the candidate
        // count, and a rotated offer order makes later ties carry smaller ids.
        #[test]
        fn offer_matches_full_sort_prefix_under_ties(
            dists in prop::collection::vec(0u32..4, 0..64),
            k_draw in 0usize..1024,
            rotation in 0usize..64,
        ) {
            let k = 1 + k_draw % (dists.len() + 2);
            let mut candidates: Vec<Neighbor> =
                dists.iter().enumerate().map(|(i, &d)| Neighbor::new(i, d)).collect();
            candidates.rotate_left(rotation.min(dists.len()));
            let mut topk = TopK::new(k);
            for &c in &candidates {
                topk.offer(c);
            }
            let mut got = Vec::new();
            topk.drain_sorted_into(&mut got);
            let expected: Vec<Neighbor> = full_sort(candidates).into_iter().take(k).collect();
            prop_assert_eq!(got, expected);
        }
    }
}
