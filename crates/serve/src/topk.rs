//! Bounded top-K selection without a full sort.
//!
//! Serving scores the entire opposite-domain catalogue per request but only
//! returns K items, so sorting all `|V|` scores (`O(|V| log |V|)`) is wasted
//! work. [`TopK`] keeps a K-bounded binary heap ordered so the *worst*
//! retained candidate sits at the root: a streamed score either loses to the
//! root in one comparison (the overwhelmingly common case) or replaces it in
//! `O(log K)`. The heap storage is reused across requests — no per-request
//! allocation after warm-up.
//!
//! Ranking uses a **total** order — score descending, item id ascending on
//! ties — so heap selection is *identical* to a full sort under the same
//! order, which the parity tests pin down, and so does CI's `bench-smoke`
//! job: its bench_suite check compares every f32 reply to
//! `Recommender::recommend_full_sort`.

use serde::{Deserialize, Serialize};

/// One recommended item with its score. Serializes compactly (`u32` item,
/// `f32` score, both LE) — the payload of a [`crate::proto::RecommendOk`]
/// wire response.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// The recommended target-domain item.
    pub item: u32,
    /// The model score (higher = more relevant).
    pub score: f32,
}

/// Returns true when candidate `a` ranks strictly above `b`: higher score
/// first, ties broken towards the smaller item id. Total over finite scores,
/// so selection order never depends on evaluation order.
#[inline]
pub fn ranks_above(a: (f32, u32), b: (f32, u32)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// A K-bounded binary min-heap over `(score, item)` (root = worst retained).
#[derive(Debug, Default)]
pub struct TopK {
    k: usize,
    entries: Vec<(f32, u32)>,
}

impl TopK {
    /// Creates an empty selector (call [`TopK::reset`] before use).
    pub fn new() -> Self {
        TopK::default()
    }

    /// Clears retained entries and sets the bound for the next request.
    /// Retains heap storage across calls.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.entries.clear();
        // `reserve_exact` takes *additional* elements beyond len (0 after
        // the clear), and is a no-op once the capacity already covers `k`.
        self.entries.reserve_exact(k);
    }

    /// Number of currently retained candidates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no candidate is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Once the heap is full, the score of the worst retained candidate —
    /// the bar a new entry must clear. `None` while room remains. Because
    /// entries arrive in ascending item order, a later candidate scoring
    /// *equal* to this bar always loses the `(score desc, item asc)`
    /// tiebreak, so callers may reject on `score <= bar` without consulting
    /// [`push`](TopK::push) (which re-checks regardless). NaN compares
    /// false against any bar, matching the push-side NaN exclusion.
    #[inline]
    pub(crate) fn full_threshold(&self) -> Option<f32> {
        if self.entries.len() < self.k {
            None
        } else if self.k == 0 {
            // A zero-capacity heap rejects everything; +inf makes the
            // strict comparison do the same.
            Some(f32::INFINITY)
        } else {
            Some(self.entries[0].0)
        }
    }

    /// `a` is heap-smaller than `b` when `a` ranks below `b` (the heap keeps
    /// its minimum — the worst candidate — at the root).
    #[inline]
    fn heap_less(a: (f32, u32), b: (f32, u32)) -> bool {
        ranks_above(b, a)
    }

    /// Offers one candidate. NaN scores must be filtered by the caller (the
    /// recommender skips them); infinities participate in the total order.
    #[inline]
    pub fn push(&mut self, score: f32, item: u32) {
        debug_assert!(!score.is_nan(), "NaN scores must be filtered before selection");
        let entry = (score, item);
        if self.entries.len() < self.k {
            self.entries.push(entry);
            self.sift_up(self.entries.len() - 1);
        } else if self.k > 0 && ranks_above(entry, self.entries[0]) {
            self.entries[0] = entry;
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::heap_less(self.entries[i], self.entries[parent]) {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if l < n && Self::heap_less(self.entries[l], self.entries[smallest]) {
                smallest = l;
            }
            if r < n && Self::heap_less(self.entries[r], self.entries[smallest]) {
                smallest = r;
            }
            if smallest == i {
                return;
            }
            self.entries.swap(i, smallest);
            i = smallest;
        }
    }

    /// Pops the worst retained candidate.
    fn pop_worst(&mut self) -> Option<(f32, u32)> {
        let n = self.entries.len();
        if n == 0 {
            return None;
        }
        self.entries.swap(0, n - 1);
        let worst = self.entries.pop();
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
        worst
    }

    /// Drains the retained candidates into `out`, best first. `out` is
    /// cleared first and its storage reused.
    pub(crate) fn drain_sorted_into(&mut self, out: &mut Vec<Recommendation>) {
        out.clear();
        out.reserve_exact(self.entries.len());
        while let Some((score, item)) = self.pop_worst() {
            out.push(Recommendation { item, score });
        }
        out.reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn select(k: usize, candidates: &[(f32, u32)]) -> Vec<Recommendation> {
        let mut topk = TopK::new();
        topk.reset(k);
        for &(s, i) in candidates {
            topk.push(s, i);
        }
        let mut out = Vec::new();
        topk.drain_sorted_into(&mut out);
        out
    }

    fn full_sort(k: usize, candidates: &[(f32, u32)]) -> Vec<Recommendation> {
        let mut all: Vec<(f32, u32)> = candidates.to_vec();
        all.sort_by(|a, b| {
            if ranks_above(*a, *b) {
                std::cmp::Ordering::Less
            } else if ranks_above(*b, *a) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        all.truncate(k);
        all.into_iter()
            .map(|(score, item)| Recommendation { item, score })
            .collect()
    }

    #[test]
    fn selects_best_k_in_order() {
        let cands = [(1.0f32, 0u32), (3.0, 1), (2.0, 2), (-1.0, 3), (2.5, 4)];
        let got = select(3, &cands);
        assert_eq!(
            got,
            vec![
                Recommendation { item: 1, score: 3.0 },
                Recommendation { item: 4, score: 2.5 },
                Recommendation { item: 2, score: 2.0 },
            ]
        );
    }

    #[test]
    fn ties_break_towards_smaller_item_ids() {
        let cands = [(1.0f32, 9u32), (1.0, 2), (1.0, 5), (1.0, 0), (0.5, 1)];
        let got = select(3, &cands);
        assert_eq!(got.iter().map(|r| r.item).collect::<Vec<_>>(), vec![0, 2, 5]);
    }

    #[test]
    fn matches_full_sort_on_adversarial_streams() {
        // Many ties, infinities, k spanning under/at/over the stream length.
        let mut cands = Vec::new();
        for i in 0..200u32 {
            cands.push(((i % 7) as f32 * 0.25, i));
        }
        cands.push((f32::INFINITY, 500));
        cands.push((f32::NEG_INFINITY, 501));
        for k in [0usize, 1, 7, 50, 200, 202, 300] {
            assert_eq!(select(k, &cands), full_sort(k, &cands), "k={k}");
        }
    }

    #[test]
    fn reset_reuses_storage() {
        let mut topk = TopK::new();
        topk.reset(4);
        for i in 0..100u32 {
            topk.push(i as f32, i);
        }
        let mut out = Vec::new();
        topk.drain_sorted_into(&mut out);
        assert_eq!(out[0].item, 99);
        topk.reset(2);
        assert!(topk.is_empty());
        topk.push(5.0, 1);
        topk.push(9.0, 2);
        topk.push(7.0, 3);
        assert_eq!(topk.len(), 2);
        topk.drain_sorted_into(&mut out);
        assert_eq!(out.iter().map(|r| r.item).collect::<Vec<_>>(), vec![2, 3]);
    }
}
