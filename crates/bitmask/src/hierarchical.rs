//! Two-level hierarchical bitmask for *super-sparse* chunks (§IV-A).
//!
//! When a chunk has only a handful of valid cells the flat bitmask itself
//! dominates the chunk size. The hierarchical mask stores an *upper* bitmask
//! with one bit per lower-level word; a clear upper bit means the whole
//! 64-bit lower word is zero and is not stored at all. Only non-zero lower
//! words are kept, densely packed.

use crate::bitvec::{for_each_bit, Bitmask};
use crate::WORD_BITS;

/// Compressed two-level bitmask.
///
/// Logically equivalent to a [`Bitmask`] of the same length, but words that
/// are entirely zero are elided; the upper mask records which lower words
/// survive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierarchicalBitmask {
    /// One bit per lower-level word; set iff the word is non-zero.
    upper: Bitmask,
    /// The non-zero lower words, in word-index order.
    lower: Vec<u64>,
    /// Logical number of bits.
    len: usize,
}

impl HierarchicalBitmask {
    /// Compresses a flat mask into hierarchical form.
    pub fn compress(mask: &Bitmask) -> Self {
        let words = mask.words();
        let mut upper = Bitmask::zeros(words.len());
        let mut lower = Vec::new();
        for (i, &w) in words.iter().enumerate() {
            if w != 0 {
                upper.set(i, true);
                lower.push(w);
            }
        }
        HierarchicalBitmask {
            upper,
            lower,
            len: mask.len(),
        }
    }

    /// Builds the hierarchical form straight from set-bit positions, never
    /// allocating the flat mask: cost is O(positions + len / 4096), so a
    /// block that will be stored hierarchically is built at the size it is
    /// kept at. Positions must be `< len` and must not descend from one
    /// 64-bit word to an earlier one; duplicates are idempotent. Equal to
    /// `compress(&Bitmask::from_ones(len, ones))`.
    pub fn from_sorted_ones(len: usize, ones: impl IntoIterator<Item = usize>) -> Self {
        let mut upper = Bitmask::zeros(len.div_ceil(WORD_BITS));
        let mut lower: Vec<u64> = Vec::new();
        // Word index of the lower word being filled (`lower.last()`).
        let mut current = None;
        for i in ones {
            assert!(i < len, "bit index {i} out of range {len}");
            let word_idx = i / WORD_BITS;
            if current != Some(word_idx) {
                assert!(current < Some(word_idx), "set-bit positions must ascend");
                upper.set(word_idx, true);
                lower.push(0);
                current = Some(word_idx);
            }
            *lower.last_mut().expect("a word was just opened") |= 1u64 << (i % WORD_BITS);
        }
        HierarchicalBitmask { upper, lower, len }
    }

    /// Assembles the mask from its two levels as they stand — `upper` with
    /// one bit per 64-bit word of a `len`-bit mask, `lower` the non-zero
    /// words its set bits name, in word order — so a producer that already
    /// tracks which words are occupied skips [`HierarchicalBitmask::compress`]'s
    /// scan of every word. The invariants are the decoder's and are checked
    /// in debug builds.
    pub fn from_parts(len: usize, upper: Bitmask, lower: Vec<u64>) -> Self {
        debug_assert_eq!(upper.len(), len.div_ceil(WORD_BITS), "upper mask length");
        debug_assert_eq!(
            upper.count_ones(),
            lower.len(),
            "one lower word per upper bit"
        );
        debug_assert!(!lower.contains(&0), "lower words are non-zero");
        debug_assert!(
            len.is_multiple_of(WORD_BITS)
                || !upper.get(upper.len() - 1)
                || lower[lower.len() - 1] >> (len % WORD_BITS) == 0,
            "no bit at or beyond len"
        );
        HierarchicalBitmask { upper, lower, len }
    }

    /// Serialises the mask in its own two-level form — `len:u64`, the
    /// upper mask ([`Bitmask::write_le`]), then `count:u64 | lower words` —
    /// all little-endian: a super-sparse block spills at the size it is
    /// held at, not at its flat mask's.
    pub fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        self.upper.write_le(out);
        out.extend_from_slice(&(self.lower.len() as u64).to_le_bytes());
        for w in &self.lower {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Decodes a mask written by [`HierarchicalBitmask::write_le`] from the
    /// front of `buf`, returning it and the number of bytes consumed.
    /// `None` on truncated input and on any frame that breaks the
    /// structure's invariants: an upper mask of the wrong length, a lower
    /// word count other than the upper mask's population, a zero lower
    /// word, or a bit at or beyond `len`.
    pub fn read_le(buf: &[u8]) -> Option<(Self, usize)> {
        let u64_at = |pos: usize| {
            let raw = buf.get(pos..pos.checked_add(8)?)?;
            Some(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
        };
        let len = usize::try_from(u64_at(0)?).ok()?;
        let (upper, upper_bytes) = Bitmask::read_le(&buf[8..])?;
        if upper.len() != len.div_ceil(WORD_BITS) {
            return None;
        }
        let mut pos = 8 + upper_bytes;
        let count = usize::try_from(u64_at(pos)?).ok()?;
        pos += 8;
        if count != upper.count_ones() {
            return None;
        }
        let lower: Vec<u64> = buf
            .get(pos..pos.checked_add(count.checked_mul(8)?)?)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        pos += count * 8;
        if lower.contains(&0) {
            return None;
        }
        // Only the final lower-level word can reach past `len`.
        let tail = len % WORD_BITS;
        if tail != 0 && upper.get(upper.len() - 1) && lower[count - 1] >> tail != 0 {
            return None;
        }
        Some((HierarchicalBitmask { upper, lower, len }, pos))
    }

    /// Expands back to a flat mask.
    pub fn decompress(&self) -> Bitmask {
        let mut out = Bitmask::zeros(self.len);
        self.for_each_one(|i| out.set(i, true));
        out
    }

    /// Logical number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mask covers zero cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads logical bit `i`.
    ///
    /// A clear upper bit answers immediately; otherwise the surviving lower
    /// word is located by ranking the upper mask.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let word_idx = i / WORD_BITS;
        if !self.upper.get(word_idx) {
            return false;
        }
        let slot = self.upper.rank_naive(word_idx);
        (self.lower[slot] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Exclusive rank of position `i`: set bits in `[0, i)`.
    pub fn rank(&self, i: usize) -> usize {
        debug_assert!(i <= self.len);
        let word_idx = i / WORD_BITS;
        let bit = i % WORD_BITS;
        let mut count = 0usize;
        for (slot, wi) in self.upper.iter_ones().enumerate() {
            if wi < word_idx {
                count += self.lower[slot].count_ones() as usize;
            } else if wi == word_idx && bit != 0 {
                count += (self.lower[slot] & ((1u64 << bit) - 1)).count_ones() as usize;
                break;
            } else {
                break;
            }
        }
        count
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.lower.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the positions of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.upper
            .iter_ones()
            .enumerate()
            .flat_map(move |(slot, word_idx)| {
                let w = self.lower[slot];
                OneBits {
                    word: w,
                    base: word_idx * WORD_BITS,
                }
            })
    }

    /// Calls `f` with the position of every set bit, in increasing order —
    /// [`HierarchicalBitmask::iter_ones`] as an internal walk: the upper
    /// mask's set bits name the surviving words, consumed in step with
    /// `lower`, and `f` is inlined into the loop.
    #[inline]
    pub fn for_each_one(&self, mut f: impl FnMut(usize)) {
        let mut lower = self.lower.iter();
        self.upper.for_each_one(|word_idx| {
            let &word = lower.next().expect("one lower word per upper bit");
            for_each_bit(word, word_idx * WORD_BITS, &mut f);
        });
    }

    /// Deep size in bytes. For genuinely super-sparse data this is far below
    /// the flat mask's `len / 8` bytes.
    pub fn mem_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.upper.mem_size()
            + self.lower.len() * std::mem::size_of::<u64>()
    }
}

struct OneBits {
    word: u64,
    base: usize,
}

impl Iterator for OneBits {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse_mask(len: usize, every: usize) -> Bitmask {
        Bitmask::from_fn(len, |i| i % every == 0)
    }

    #[test]
    fn compress_decompress_roundtrip() {
        for every in [1, 3, 64, 500, 4096] {
            let m = sparse_mask(10_000, every);
            let h = HierarchicalBitmask::compress(&m);
            assert_eq!(h.decompress(), m, "every={every}");
            assert_eq!(h.count_ones(), m.count_ones());
        }
    }

    #[test]
    fn get_matches_flat_mask() {
        let m = sparse_mask(2_000, 131);
        let h = HierarchicalBitmask::compress(&m);
        for i in 0..2_000 {
            assert_eq!(h.get(i), m.get(i), "bit {i}");
        }
    }

    #[test]
    fn rank_matches_flat_mask() {
        let m = sparse_mask(3_000, 97);
        let h = HierarchicalBitmask::compress(&m);
        for i in (0..=3_000).step_by(53) {
            assert_eq!(h.rank(i), m.rank_naive(i), "pos {i}");
        }
    }

    #[test]
    fn iter_ones_matches_flat_mask() {
        let m = sparse_mask(5_000, 211);
        let h = HierarchicalBitmask::compress(&m);
        let flat: Vec<usize> = m.iter_ones().collect();
        let hier: Vec<usize> = h.iter_ones().collect();
        assert_eq!(flat, hier);
    }

    #[test]
    fn for_each_one_matches_iter_ones() {
        for every in [1, 3, 64, 211, 4096] {
            let h = HierarchicalBitmask::compress(&sparse_mask(5_000, every));
            let mut walked = Vec::new();
            h.for_each_one(|i| walked.push(i));
            assert_eq!(walked, h.iter_ones().collect::<Vec<_>>(), "every={every}");
        }
    }

    #[test]
    fn from_sorted_ones_equals_compress() {
        // Duplicates, a shared word, a skipped word, the final partial word.
        let ones = [0, 0, 5, 63, 64, 64, 300, 999];
        let built = HierarchicalBitmask::from_sorted_ones(1000, ones);
        assert_eq!(
            built,
            HierarchicalBitmask::compress(&Bitmask::from_ones(1000, ones))
        );
        assert_eq!(
            HierarchicalBitmask::from_sorted_ones(70, []),
            HierarchicalBitmask::compress(&Bitmask::zeros(70))
        );
    }

    #[test]
    fn from_parts_equals_compress() {
        let m = Bitmask::from_ones(5000, [3, 64, 65, 4095, 4096, 4999]);
        let words = m.words();
        let upper = Bitmask::from_fn(words.len(), |w| words[w] != 0);
        let lower = words.iter().copied().filter(|&w| w != 0).collect();
        let built = HierarchicalBitmask::from_parts(5000, upper, lower);
        assert_eq!(built, HierarchicalBitmask::compress(&m));
    }

    #[test]
    #[should_panic(expected = "must ascend")]
    fn from_sorted_ones_rejects_descending_words() {
        let _ = HierarchicalBitmask::from_sorted_ones(1000, [700, 3]);
    }

    fn encoded(h: &HierarchicalBitmask) -> Vec<u8> {
        let mut buf = Vec::new();
        h.write_le(&mut buf);
        buf
    }

    #[test]
    fn codec_roundtrips_without_the_flat_mask() {
        for (len, every) in [(0, 1), (1, 1), (64, 7), (1000, 131), (1 << 16, 5000)] {
            let h = HierarchicalBitmask::compress(&sparse_mask(len, every));
            let buf = encoded(&h);
            let (back, used) = HierarchicalBitmask::read_le(&buf).expect("decode");
            assert_eq!((back, used), (h, buf.len()), "len={len} every={every}");
        }
        // 14 set bits of 65 536: three u64 headers, 16 upper and 14 lower
        // words — not the flat mask's 1024.
        let h = HierarchicalBitmask::compress(&sparse_mask(1 << 16, 5000));
        assert_eq!(encoded(&h).len(), 8 * (3 + 16 + 14));
    }

    #[test]
    fn decoder_rejects_frames_that_break_the_invariants() {
        // Bits 3 and 997 of 1000: upper mask of 16 bits (one word), two
        // lower words. Layout: len | upper len | upper word | count | lower….
        let h = HierarchicalBitmask::from_sorted_ones(1000, [3, 997]);
        let good = encoded(&h);
        assert_eq!(good.len(), 8 * 6);
        let with_u64 = |at: usize, v: u64| {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&v.to_le_bytes());
            HierarchicalBitmask::read_le(&bad)
        };
        // popcount(upper) != lower word count, in either field.
        assert_eq!(with_u64(24, 1), None);
        assert_eq!(with_u64(16, 0b1), None);
        // A zero lower word.
        assert_eq!(with_u64(32, 0), None);
        // A bit at position 1000 + 8 (bit 48 of the last word).
        assert_eq!(with_u64(40, 1 << 48), None);
        // An upper mask sized for a different `len`.
        assert_eq!(with_u64(0, 5000), None);
        assert_eq!(with_u64(8, 15), None);
        // The same edits that keep the invariants still decode.
        assert!(with_u64(40, 1 << 39).is_some());
        for cut in 0..good.len() {
            assert_eq!(HierarchicalBitmask::read_le(&good[..cut]), None);
        }
    }

    #[test]
    fn super_sparse_mask_is_smaller_than_flat() {
        // One valid cell per 4096: the flat mask stores every word, the
        // hierarchical one stores ~1/64 of them.
        let m = sparse_mask(1 << 20, 4096);
        let h = HierarchicalBitmask::compress(&m);
        assert!(
            h.mem_size() * 4 < m.mem_size(),
            "hierarchical {} vs flat {}",
            h.mem_size(),
            m.mem_size()
        );
    }

    #[test]
    fn empty_and_full_masks() {
        let empty = Bitmask::zeros(1000);
        let h = HierarchicalBitmask::compress(&empty);
        assert_eq!(h.count_ones(), 0);
        assert_eq!(h.decompress(), empty);

        let full = Bitmask::ones(1000);
        let h = HierarchicalBitmask::compress(&full);
        assert_eq!(h.count_ones(), 1000);
        assert_eq!(h.decompress(), full);
    }
}
