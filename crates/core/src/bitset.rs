//! Packed `u64` bitsets for dataset hit masks.
//!
//! The DNF query loops intersect and union per-predicate answer sets many
//! times per expression. With `Vec<bool>` those are byte-wise loops; packing
//! the masks into `u64` words turns clause intersection (`AND`) and
//! cross-clause dedup (`OR`/membership) into word-wise operations — 64
//! datasets per instruction. [`MixedQueryEngine`](crate::engine::MixedQueryEngine)
//! memoizes one [`BitSet`] per distinct predicate and
//! [`PtileMultiIndex`](crate::ptile::PtileMultiIndex) accumulates DNF
//! clauses through one.

/// A fixed-capacity set of dataset indexes packed into `u64` words.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Universe size this set was created with.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no index is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears every bit, keeping the universe and the word buffer.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Re-targets the set to the universe `0..len` and clears it, reusing
    /// the word buffer (no allocation once it has grown to `len` words).
    /// Query scratch resets its bitsets with this per query.
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
    }

    /// Sets every index of the universe (tail bits of the last word stay
    /// clear, so [`iter_ones`](Self::iter_ones) and
    /// [`count_ones`](Self::count_ones) remain exact). Used to seed clause
    /// intersection accumulators.
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Inserts `i`, returning `true` iff it was not already present.
    ///
    /// # Panics
    /// Panics if `i` is outside the universe.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "index {i} outside universe {}", self.len);
        let (w, b) = (i / 64, 1u64 << (i % 64));
        let fresh = self.words[w] & b == 0;
        self.words[w] |= b;
        fresh
    }

    /// Membership test.
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Word-wise intersection: `self &= other`.
    ///
    /// # Panics
    /// Panics on universe mismatch.
    pub fn and_assign(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "bitset universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Number of set indexes.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the set indexes in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rem = w;
            std::iter::from_fn(move || {
                if rem == 0 {
                    return None;
                }
                let b = rem.trailing_zeros() as usize;
                rem &= rem - 1;
                Some(wi * 64 + b)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_roundtrip() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "re-insert reports already-present");
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
        assert!(!s.contains(500), "out of universe is just absent");
        assert_eq!(s.count_ones(), 4);
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
    }

    #[test]
    fn and_or_are_word_wise() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        for i in (0..100).step_by(2) {
            a.insert(i);
        }
        for i in (0..100).step_by(3) {
            b.insert(i);
        }
        let mut and = a.clone();
        and.and_assign(&b);
        assert_eq!(
            and.iter_ones().collect::<Vec<_>>(),
            (0..100).filter(|i| i % 6 == 0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reset_and_set_all_respect_the_universe() {
        let mut s = BitSet::new(130);
        s.insert(129);
        s.reset(70);
        assert_eq!(s.len(), 70);
        assert!(s.is_empty(), "reset clears old bits");
        s.set_all();
        assert_eq!(s.count_ones(), 70);
        assert_eq!(s.iter_ones().last(), Some(69), "tail bits stay clear");
        // Word-aligned universe: set_all fills whole words.
        s.reset(128);
        s.set_all();
        assert_eq!(s.count_ones(), 128);
        // Growing again reuses / extends the buffer without stale bits.
        s.reset(200);
        assert!(s.is_empty());
        assert!(s.insert(199));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics() {
        let mut a = BitSet::new(64);
        a.and_assign(&BitSet::new(65));
    }
}
