//! The plain bit vector underlying every Spangle chunk.

use crate::WORD_BITS;

/// A fixed-length bit vector with one bit per array cell.
///
/// Bit `i` set means cell `i` of the chunk is *valid* (holds a real value);
/// clear means the cell is null / no-data. The vector length is the chunk
/// volume, which is independent of how many values the payload physically
/// stores.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitmask {
    words: Vec<u64>,
    len: usize,
}

impl std::fmt::Debug for Bitmask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bitmask(len={}, ones={})", self.len, self.count_ones())
    }
}

impl Bitmask {
    /// Creates an all-zero mask of `len` bits (every cell null).
    pub fn zeros(len: usize) -> Self {
        Bitmask {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates an all-one mask of `len` bits (every cell valid).
    pub fn ones(len: usize) -> Self {
        let mut m = Bitmask {
            words: vec![!0u64; len.div_ceil(WORD_BITS)],
            len,
        };
        m.clear_tail();
        m
    }

    /// Builds a mask by evaluating `f` at every bit position.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut m = Bitmask::zeros(len);
        for i in 0..len {
            if f(i) {
                m.set(i, true);
            }
        }
        m
    }

    /// Builds a mask from an iterator of set-bit positions.
    ///
    /// Positions must be `< len`; duplicates are allowed and idempotent.
    pub fn from_ones(len: usize, ones: impl IntoIterator<Item = usize>) -> Self {
        let mut m = Bitmask::zeros(len);
        for i in ones {
            m.set(i, true);
        }
        m
    }

    /// Reassembles a mask from its raw backing words — the inverse of
    /// [`Bitmask::words`], used by the spill codec to rehydrate masks
    /// without re-setting bits one at a time. `words` must hold exactly
    /// `len.div_ceil(64)` words; bits past `len` are cleared.
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(WORD_BITS),
            "word count mismatch for a {len}-bit mask"
        );
        let mut m = Bitmask { words, len };
        m.clear_tail();
        m
    }

    /// Serialises the mask as `len:u64 | words:u64…`, all little-endian —
    /// the wire form used by the dataflow spill codec.
    pub fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Decodes a mask written by [`Bitmask::write_le`] from the front of
    /// `buf`, returning it and the number of bytes consumed. `None` on
    /// truncated input and on a frame with a bit set at or beyond `len`
    /// (the encoder never writes one).
    pub fn read_le(buf: &[u8]) -> Option<(Bitmask, usize)> {
        let len = usize::try_from(u64::from_le_bytes(buf.get(..8)?.try_into().unwrap())).ok()?;
        let words_bytes = len.div_ceil(WORD_BITS).checked_mul(8)?;
        let raw = buf.get(8..8 + words_bytes)?;
        let words: Vec<u64> = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let tail = len % WORD_BITS;
        if tail != 0 && words[words.len() - 1] >> tail != 0 {
            return None;
        }
        Some((Bitmask { words, len }, 8 + words_bytes))
    }

    /// Number of bits (cells) in the mask.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers zero cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words. The final word's unused high bits are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Writes bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / WORD_BITS];
        let bit = 1u64 << (i % WORD_BITS);
        if value {
            *w |= bit;
        } else {
            *w &= !bit;
        }
    }

    /// Sets every bit in `[start, end)` — word-at-a-time, used to paint
    /// the contiguous runs of Subarray's virtual range mask.
    pub fn set_range(&mut self, start: usize, end: usize) {
        debug_assert!(start <= end && end <= self.len);
        if start == end {
            return;
        }
        let (first_word, first_bit) = (start / WORD_BITS, start % WORD_BITS);
        let (last_word, last_bit) = ((end - 1) / WORD_BITS, (end - 1) % WORD_BITS);
        let lo_mask = !0u64 << first_bit;
        let hi_mask = !0u64 >> (WORD_BITS - 1 - last_bit);
        if first_word == last_word {
            self.words[first_word] |= lo_mask & hi_mask;
        } else {
            self.words[first_word] |= lo_mask;
            for w in &mut self.words[first_word + 1..last_word] {
                *w = !0;
            }
            self.words[last_word] |= hi_mask;
        }
    }

    /// Clears every bit, keeping the length (and the allocation).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Total number of set bits (valid cells).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of valid cells, in `[0, 1]`. Empty masks report 0.
    pub fn density(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// True when no bit is set.
    pub fn all_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of set bits strictly before position `i` (exclusive rank),
    /// computed the *naive* way: re-scanning every word from the beginning.
    ///
    /// This is the access pattern Figure 8 labels "naive"; it makes a full
    /// scan of a chunk quadratic in the chunk size.
    pub fn rank_naive(&self, i: usize) -> usize {
        debug_assert!(i <= self.len);
        let word = i / WORD_BITS;
        let bit = i % WORD_BITS;
        let mut count = 0usize;
        for w in &self.words[..word] {
            count += w.count_ones() as usize;
        }
        if bit != 0 {
            count += (self.words[word] & ((1u64 << bit) - 1)).count_ones() as usize;
        }
        count
    }

    /// Position of the `k`-th set bit (0-based), or `None` when fewer than
    /// `k + 1` bits are set.
    pub fn select(&self, k: usize) -> Option<usize> {
        let mut remaining = k;
        for (wi, &w) in self.words.iter().enumerate() {
            let ones = w.count_ones() as usize;
            if remaining < ones {
                let mut w = w;
                for _ in 0..remaining {
                    w &= w - 1; // clear lowest set bit
                }
                return Some(wi * WORD_BITS + w.trailing_zeros() as usize);
            }
            remaining -= ones;
        }
        None
    }

    /// Iterates over the positions of the set bits in increasing order.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Calls `f` with the position of every set bit, in increasing order —
    /// [`Bitmask::iter_ones`] as an internal walk: `f` is inlined into the
    /// word loop, so a hot kernel pays no iterator state per bit.
    #[inline]
    pub fn for_each_one(&self, mut f: impl FnMut(usize)) {
        for (word_idx, &word) in self.words.iter().enumerate() {
            for_each_bit(word, word_idx * WORD_BITS, &mut f);
        }
    }

    /// Bitwise AND with `other`, in place. Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &Bitmask) {
        assert_eq!(self.len, other.len, "bitmask length mismatch in AND");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Bitwise OR with `other`, in place. Panics if the lengths differ.
    pub fn or_assign(&mut self, other: &Bitmask) {
        assert_eq!(self.len, other.len, "bitmask length mismatch in OR");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Clears in `self` every bit set in `other` (`self & !other`), in place.
    pub fn and_not_assign(&mut self, other: &Bitmask) {
        assert_eq!(self.len, other.len, "bitmask length mismatch in ANDNOT");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Returns `self & other` as a new mask.
    pub fn and(&self, other: &Bitmask) -> Bitmask {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// Returns `self | other` as a new mask.
    pub fn or(&self, other: &Bitmask) -> Bitmask {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }

    /// Deep size of the mask in bytes (words + header), used by the Fig. 9a
    /// memory accounting.
    pub fn mem_size(&self) -> usize {
        std::mem::size_of::<Self>() + self.words.len() * std::mem::size_of::<u64>()
    }

    /// Zeroes the unused high bits of the final word so that whole-word
    /// popcounts never overcount.
    fn clear_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// Calls `f` with `base + b` for every set bit `b` of `word`, lowest first.
#[inline]
pub fn for_each_bit(mut word: u64, base: usize, f: &mut impl FnMut(usize)) {
    while word != 0 {
        f(base + word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

/// Iterator over set-bit positions of a [`Bitmask`].
pub struct OnesIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_have_expected_counts() {
        assert_eq!(Bitmask::zeros(130).count_ones(), 0);
        assert_eq!(Bitmask::ones(130).count_ones(), 130);
        assert_eq!(Bitmask::ones(64).count_ones(), 64);
        assert_eq!(Bitmask::ones(0).count_ones(), 0);
    }

    #[test]
    fn ones_mask_keeps_tail_bits_clear() {
        let m = Bitmask::ones(65);
        assert_eq!(m.words()[1], 1, "only the first bit of word 1 may be set");
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = Bitmask::zeros(200);
        for i in (0..200).step_by(7) {
            m.set(i, true);
        }
        for i in 0..200 {
            assert_eq!(m.get(i), i % 7 == 0, "bit {i}");
        }
        m.set(0, false);
        assert!(!m.get(0));
    }

    #[test]
    fn rank_naive_matches_manual_count() {
        let m = Bitmask::from_fn(300, |i| i % 3 == 0);
        for i in 0..=300 {
            let expected = (0..i).filter(|&j| j % 3 == 0).count();
            assert_eq!(m.rank_naive(i), expected, "rank({i})");
        }
    }

    #[test]
    fn select_is_inverse_of_rank() {
        let m = Bitmask::from_fn(500, |i| i % 5 == 2);
        for (k, pos) in m.iter_ones().enumerate() {
            assert_eq!(m.select(k), Some(pos));
            assert_eq!(m.rank_naive(pos), k);
        }
        assert_eq!(m.select(m.count_ones()), None);
    }

    #[test]
    fn iter_ones_visits_all_set_bits_in_order() {
        let positions = vec![0, 1, 63, 64, 65, 127, 128, 255];
        let m = Bitmask::from_ones(256, positions.iter().copied());
        let collected: Vec<usize> = m.iter_ones().collect();
        assert_eq!(collected, positions);
    }

    #[test]
    fn for_each_one_matches_iter_ones() {
        for (len, every) in [(0, 1), (1, 1), (64, 1), (65, 64), (1000, 7), (5000, 977)] {
            let m = Bitmask::from_fn(len, |i| i % every == 0);
            let mut walked = Vec::new();
            m.for_each_one(|i| walked.push(i));
            assert_eq!(walked, m.iter_ones().collect::<Vec<_>>(), "len={len}");
        }
    }

    #[test]
    fn bitwise_ops_match_per_bit_semantics() {
        let a = Bitmask::from_fn(100, |i| i % 2 == 0);
        let b = Bitmask::from_fn(100, |i| i % 3 == 0);
        let and = a.and(&b);
        let or = a.or(&b);
        let mut andnot = a.clone();
        andnot.and_not_assign(&b);
        for i in 0..100 {
            assert_eq!(and.get(i), a.get(i) && b.get(i));
            assert_eq!(or.get(i), a.get(i) || b.get(i));
            assert_eq!(andnot.get(i), a.get(i) && !b.get(i));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn and_panics_on_length_mismatch() {
        let mut a = Bitmask::zeros(10);
        a.and_assign(&Bitmask::zeros(11));
    }

    #[test]
    fn density_and_all_zero() {
        let m = Bitmask::from_fn(100, |i| i < 25);
        assert!((m.density() - 0.25).abs() < 1e-12);
        assert!(!m.all_zero());
        assert!(Bitmask::zeros(10).all_zero());
        assert_eq!(Bitmask::zeros(0).density(), 0.0);
    }

    #[test]
    fn set_range_matches_per_bit_sets() {
        for (start, end) in [
            (0, 0),
            (0, 1),
            (3, 61),
            (3, 64),
            (60, 130),
            (64, 128),
            (5, 199),
        ] {
            let mut fast = Bitmask::zeros(200);
            fast.set_range(start, end);
            let slow = Bitmask::from_fn(200, |i| i >= start && i < end);
            assert_eq!(fast, slow, "range [{start},{end})");
        }
    }

    #[test]
    fn codec_roundtrips_and_rejects_bits_beyond_len() {
        let m = Bitmask::from_fn(130, |i| i % 3 == 0);
        let mut buf = Vec::new();
        m.write_le(&mut buf);
        assert_eq!(Bitmask::read_le(&buf), Some((m, buf.len())));
        assert_eq!(Bitmask::read_le(&buf[..buf.len() - 1]), None);
        // Bit 130 — the third bit of the last word — is past the end.
        let last = buf.len() - 8;
        buf[last] |= 1 << 2;
        assert_eq!(Bitmask::read_le(&buf), None);
    }

    #[test]
    fn mem_size_scales_with_words() {
        let small = Bitmask::zeros(64).mem_size();
        let large = Bitmask::zeros(64 * 100).mem_size();
        assert_eq!(large - small, 99 * 8);
    }
}
