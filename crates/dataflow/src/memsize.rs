//! Deep-size accounting for shuffle-volume metrics, and the spill codec.
//!
//! The runtime never serialises records on the hot path; instead every
//! record written to the shuffle service is charged its deep in-memory size.
//! This keeps the *relative* network-cost comparisons of the paper (dense
//! vs. sparse chunks, bitmask vs. COO, local join vs. shuffle join)
//! measurable without paying for a wire format.
//!
//! The one place a wire format *does* exist is the spill tier: when
//! resident cache + shuffle bytes cross the memory watermark, cold
//! blocks are written to disk and rehydrated on demand. That codec lives
//! here too, as optional methods on [`MemSize`] — hand-rolled
//! little-endian framing, no external serialisation crate, and strictly
//! opt-in: a type that does not override [`MemSize::spillable`] simply
//! stays memory-resident forever.

use std::sync::Arc;

/// Deep in-memory size of a value in bytes.
///
/// Types may additionally opt into the *spill codec* by overriding
/// [`MemSize::spillable`], [`MemSize::spill_encode`] and
/// [`MemSize::spill_decode`]; blocks of such types can be demoted to the
/// on-disk spill tier under memory pressure. The codec contract is:
/// `spill_decode(spill_encode(v)) == v` bit-identically (floats round-trip
/// through their raw bits, so NaN payloads survive).
pub trait MemSize {
    /// Total bytes owned by `self`, including heap allocations but not
    /// double-counting shared (`Arc`) payloads.
    fn mem_size(&self) -> usize;

    /// Whether this type carries a spill codec. Blocks of non-spillable
    /// types are never demoted to disk — they just stay resident.
    #[inline]
    fn spillable() -> bool
    where
        Self: Sized,
    {
        false
    }

    /// Appends a self-delimiting encoding of `self` to `out`. Only called
    /// when [`MemSize::spillable`] is `true`; the default panics so a type
    /// cannot accidentally claim spillability without a codec.
    fn spill_encode(&self, _out: &mut Vec<u8>) {
        unreachable!("spill_encode called on a type without a spill codec")
    }

    /// Decodes one value previously written by [`MemSize::spill_encode`],
    /// advancing the cursor past it. Returns `None` on truncated or
    /// corrupt input (the caller treats the block as lost).
    fn spill_decode(_input: &mut SpillCursor<'_>) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }
}

/// A forward-only cursor over a spill-encoded byte buffer.
pub struct SpillCursor<'a> {
    buf: &'a [u8],
}

impl<'a> SpillCursor<'a> {
    /// Starts a cursor at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SpillCursor { buf }
    }

    /// Takes the next `n` bytes, or `None` when fewer remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.buf.len() {
            return None;
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Some(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a `u64` length prefix written by [`put_len`]. The count is
    /// *not* checked against the remaining input — an element may encode
    /// to zero bytes (`()`), so a short input has to fail in the element
    /// decoder. Callers must cap any pre-allocation by
    /// [`SpillCursor::remaining`], never by the count alone.
    pub fn len_prefix(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The unconsumed remainder of the buffer, for interop with decoders
    /// that work on slices; pair with [`SpillCursor::skip`].
    pub fn rest(&self) -> &'a [u8] {
        self.buf
    }

    /// Discards the next `n` bytes (after an external decoder consumed
    /// them from [`SpillCursor::rest`]).
    pub fn skip(&mut self, n: usize) -> Option<()> {
        self.take(n).map(|_| ())
    }
}

/// Writes a collection length as a little-endian `u64` prefix.
pub fn put_len(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(&(len as u64).to_le_bytes());
}

/// Most records a block may claim once one of them has decoded from zero
/// bytes. Records that consume input are bounded by the input; records
/// that consume none (`()`, tuples and `Arc`s of it) are bounded by
/// nothing but the count, so a corrupt count would otherwise buy 2⁶⁴
/// decode steps with eight bytes. A million is far above any block of
/// unit records this runtime deposits and far below a wedged task;
/// [`encode_records`] refuses to write what [`decode_records`] would not
/// read back.
pub(crate) const MAX_EMPTY_RECORDS: usize = 1 << 20;

/// The block codec: a count prefix, then every element's own encoding.
/// `Vec<T>`, `Box<[T]>` and spill files are all this one layout.
pub(crate) fn encode_records<T: MemSize>(records: &[T], out: &mut Vec<u8>) {
    put_len(out, records.len());
    let start = out.len();
    for record in records {
        record.spill_encode(out);
    }
    assert!(
        out.len() > start || records.len() <= MAX_EMPTY_RECORDS,
        "a block of {} zero-byte records exceeds the codec's bound",
        records.len()
    );
}

/// Decodes records written by [`encode_records`], advancing the cursor, in
/// time bounded by the input length plus [`MAX_EMPTY_RECORDS`].
pub(crate) fn decode_records<T: MemSize>(input: &mut SpillCursor<'_>) -> Option<Vec<T>> {
    let n = input.len_prefix()?;
    // The count bounds nothing on corrupt input; the bytes left do.
    let mut records = Vec::with_capacity(n.min(input.remaining()));
    for _ in 0..n {
        let before = input.remaining();
        records.push(T::spill_decode(input)?);
        if n > MAX_EMPTY_RECORDS && input.remaining() == before {
            return None;
        }
    }
    Some(records)
}

/// Decodes a whole encoded block; trailing bytes are corruption.
pub(crate) fn decode_block<T: MemSize>(block: &[u8]) -> Option<Vec<T>> {
    let mut cur = SpillCursor::new(block);
    let records = decode_records(&mut cur)?;
    (cur.remaining() == 0).then_some(records)
}

/// Fixed-width numeric primitives: `mem_size` is `size_of`, the spill
/// codec is the little-endian byte representation (bit-identical for
/// floats, including NaN payloads).
macro_rules! memsize_numeric {
    ($($t:ty),* $(,)?) => {
        $(impl MemSize for $t {
            #[inline]
            fn mem_size(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            #[inline]
            fn spillable() -> bool {
                true
            }
            #[inline]
            fn spill_encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn spill_decode(input: &mut SpillCursor<'_>) -> Option<Self> {
                let raw = input.take(std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(raw.try_into().unwrap()))
            }
        })*
    };
}

memsize_numeric!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

/// Pointer-width integers are encoded as 64-bit so a spill file's framing
/// does not depend on the platform word size.
macro_rules! memsize_word {
    ($($t:ty => $wide:ty),* $(,)?) => {
        $(impl MemSize for $t {
            #[inline]
            fn mem_size(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            #[inline]
            fn spillable() -> bool {
                true
            }
            #[inline]
            fn spill_encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&(*self as $wide).to_le_bytes());
            }
            #[inline]
            fn spill_decode(input: &mut SpillCursor<'_>) -> Option<Self> {
                let raw = input.take(8)?;
                <$t>::try_from(<$wide>::from_le_bytes(raw.try_into().unwrap())).ok()
            }
        })*
    };
}

memsize_word!(usize => u64, isize => i64);

impl MemSize for bool {
    #[inline]
    fn mem_size(&self) -> usize {
        1
    }
    fn spillable() -> bool {
        true
    }
    fn spill_encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn spill_decode(input: &mut SpillCursor<'_>) -> Option<Self> {
        match input.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl MemSize for char {
    #[inline]
    fn mem_size(&self) -> usize {
        std::mem::size_of::<char>()
    }
    fn spillable() -> bool {
        true
    }
    fn spill_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u32).to_le_bytes());
    }
    fn spill_decode(input: &mut SpillCursor<'_>) -> Option<Self> {
        char::from_u32(u32::from_le_bytes(input.take(4)?.try_into().unwrap()))
    }
}

impl MemSize for () {
    #[inline]
    fn mem_size(&self) -> usize {
        0
    }
    fn spillable() -> bool {
        true
    }
    fn spill_encode(&self, _out: &mut Vec<u8>) {}
    fn spill_decode(_input: &mut SpillCursor<'_>) -> Option<Self> {
        Some(())
    }
}

impl MemSize for &'static str {
    // Not spillable: a decoded value could not be given 'static lifetime.
    fn mem_size(&self) -> usize {
        std::mem::size_of::<&str>() + self.len()
    }
}

impl MemSize for String {
    fn mem_size(&self) -> usize {
        std::mem::size_of::<String>() + self.len()
    }
    fn spillable() -> bool {
        true
    }
    fn spill_encode(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        out.extend_from_slice(self.as_bytes());
    }
    fn spill_decode(input: &mut SpillCursor<'_>) -> Option<Self> {
        let n = input.len_prefix()?;
        String::from_utf8(input.take(n)?.to_vec()).ok()
    }
}

impl<T: MemSize> MemSize for Vec<T> {
    fn mem_size(&self) -> usize {
        std::mem::size_of::<Vec<T>>() + self.iter().map(MemSize::mem_size).sum::<usize>()
    }
    fn spillable() -> bool {
        T::spillable()
    }
    fn spill_encode(&self, out: &mut Vec<u8>) {
        encode_records(self, out);
    }
    fn spill_decode(input: &mut SpillCursor<'_>) -> Option<Self> {
        decode_records(input)
    }
}

impl<T: MemSize> MemSize for Box<[T]> {
    fn mem_size(&self) -> usize {
        std::mem::size_of::<Box<[T]>>() + self.iter().map(MemSize::mem_size).sum::<usize>()
    }
    fn spillable() -> bool {
        T::spillable()
    }
    fn spill_encode(&self, out: &mut Vec<u8>) {
        encode_records(self, out);
    }
    fn spill_decode(input: &mut SpillCursor<'_>) -> Option<Self> {
        decode_records(input).map(Vec::into_boxed_slice)
    }
}

impl<T: MemSize> MemSize for Option<T> {
    fn mem_size(&self) -> usize {
        std::mem::size_of::<Option<T>>() + self.as_ref().map_or(0, |v| v.mem_size())
    }
    fn spillable() -> bool {
        T::spillable()
    }
    fn spill_encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.spill_encode(out);
            }
        }
    }
    fn spill_decode(input: &mut SpillCursor<'_>) -> Option<Self> {
        match input.u8()? {
            0 => Some(None),
            1 => T::spill_decode(input).map(Some),
            _ => None,
        }
    }
}

impl<T: MemSize> MemSize for Arc<T> {
    /// Shared payloads are charged in full: when an `Arc` crosses the
    /// shuffle it would have to be serialised in a real cluster. The spill
    /// codec likewise encodes the pointee; rehydration allocates a fresh
    /// (unshared) one.
    fn mem_size(&self) -> usize {
        std::mem::size_of::<Arc<T>>() + (**self).mem_size()
    }
    fn spillable() -> bool {
        T::spillable()
    }
    fn spill_encode(&self, out: &mut Vec<u8>) {
        (**self).spill_encode(out);
    }
    fn spill_decode(input: &mut SpillCursor<'_>) -> Option<Self> {
        T::spill_decode(input).map(Arc::new)
    }
}

macro_rules! memsize_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: MemSize),+> MemSize for ($($name,)+) {
            fn mem_size(&self) -> usize {
                0 $(+ self.$idx.mem_size())+
            }
            fn spillable() -> bool {
                true $(&& $name::spillable())+
            }
            fn spill_encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.spill_encode(out);)+
            }
            fn spill_decode(input: &mut SpillCursor<'_>) -> Option<Self> {
                Some(($($name::spill_decode(input)?,)+))
            }
        }
    };
}

memsize_tuple!(A: 0);
memsize_tuple!(A: 0, B: 1);
memsize_tuple!(A: 0, B: 1, C: 2);
memsize_tuple!(A: 0, B: 1, C: 2, D: 3);
memsize_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_report_their_size() {
        assert_eq!(1u8.mem_size(), 1);
        assert_eq!(1u64.mem_size(), 8);
        assert_eq!(1.0f64.mem_size(), 8);
        assert_eq!(true.mem_size(), 1);
        assert_eq!(().mem_size(), 0);
    }

    #[test]
    fn containers_include_heap_contents() {
        let v = vec![0u64; 10];
        assert_eq!(v.mem_size(), std::mem::size_of::<Vec<u64>>() + 80);
        let s = String::from("hello");
        assert_eq!(s.mem_size(), std::mem::size_of::<String>() + 5);
        let nested = vec![vec![1u32, 2], vec![3u32]];
        assert!(nested.mem_size() > 12);
    }

    #[test]
    fn tuples_sum_their_fields() {
        assert_eq!((1u64, 2u64).mem_size(), 16);
        assert_eq!((1u8, 1u8, 1u8).mem_size(), 3);
    }

    #[test]
    fn option_charges_payload_when_present() {
        let none: Option<Vec<u64>> = None;
        let some: Option<Vec<u64>> = Some(vec![0; 4]);
        assert!(some.mem_size() > none.mem_size() + 31);
    }

    #[test]
    fn arc_charges_pointee() {
        let a = Arc::new(vec![0u64; 8]);
        assert!(a.mem_size() >= 64);
    }

    /// Encode-then-decode helper asserting the whole buffer is consumed.
    fn roundtrip<T: MemSize + PartialEq + std::fmt::Debug>(v: &T) {
        assert!(T::spillable());
        let mut buf = Vec::new();
        v.spill_encode(&mut buf);
        let mut cur = SpillCursor::new(&buf);
        let back = T::spill_decode(&mut cur).expect("decode");
        assert_eq!(&back, v);
        assert_eq!(cur.remaining(), 0, "codec must be self-delimiting");
    }

    #[test]
    fn spill_codec_roundtrips_primitives() {
        roundtrip(&42u8);
        roundtrip(&0xdead_beefu32);
        roundtrip(&u64::MAX);
        roundtrip(&-17i64);
        roundtrip(&3.5f32);
        roundtrip(&f64::MIN_POSITIVE);
        roundtrip(&usize::MAX);
        roundtrip(&true);
        roundtrip(&'λ');
        roundtrip(&());
    }

    #[test]
    fn spill_codec_preserves_float_bits() {
        let weird = f64::from_bits(0x7ff8_0000_0000_1234); // NaN with payload
        let mut buf = Vec::new();
        weird.spill_encode(&mut buf);
        let back = f64::spill_decode(&mut SpillCursor::new(&buf)).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn spill_codec_roundtrips_containers() {
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&Vec::<f64>::new());
        roundtrip(&String::from("spill me"));
        roundtrip(&Some(vec![(1u32, 2.0f64), (3, 4.0)]));
        roundtrip(&Option::<u64>::None);
        roundtrip(&vec![7u8; 3].into_boxed_slice());
        roundtrip(&(1u64, (2u32, vec![3.0f64]), String::from("k")));
        roundtrip(&Arc::new(vec![9u16, 8, 7]));
    }

    #[test]
    fn unspillable_types_stay_unspillable() {
        assert!(!<&'static str as MemSize>::spillable());
        assert!(!Vec::<&'static str>::spillable());
        assert!(!<(u64, &'static str)>::spillable());
    }

    #[test]
    fn truncated_input_decodes_to_none() {
        let mut buf = Vec::new();
        vec![1u64, 2, 3].spill_encode(&mut buf);
        buf.truncate(buf.len() - 1);
        assert!(Vec::<u64>::spill_decode(&mut SpillCursor::new(&buf)).is_none());
        // A count promising more than the buffer holds fails in the first
        // element decode, having pre-allocated nothing.
        let lie = u64::MAX.to_le_bytes().to_vec();
        assert!(Vec::<u8>::spill_decode(&mut SpillCursor::new(&lie)).is_none());
    }

    /// Bugfix regression: the count prefix used to be refused when it
    /// exceeded the remaining bytes, but `()` encodes to zero bytes, so
    /// `vec![(); 3]` (8 bytes) never decoded.
    #[test]
    fn zero_byte_elements_roundtrip() {
        roundtrip(&vec![(); 3]);
        roundtrip(&vec![((), ()); 64]);
        roundtrip(&vec![(7u64, ()), (8, ())]);
        let mut buf = Vec::new();
        vec![(); 3].spill_encode(&mut buf);
        assert_eq!(buf.len(), 8);
        assert_eq!(decode_block::<()>(&buf), Some(vec![(); 3]));
    }

    /// Bugfix regression: a count nothing in the input backs used to be
    /// looped over in full when records decode from zero bytes — 2⁶⁴ steps
    /// for eight hostile bytes. The element counts its decodes and panics
    /// past a small limit, so the old loop fails here instead of hanging.
    #[test]
    fn a_lying_count_of_zero_byte_records_is_refused_at_the_first_record() {
        use std::cell::Cell;
        thread_local!(static STEPS: Cell<usize> = const { Cell::new(0) });
        #[derive(Debug, PartialEq)]
        struct Counted;
        impl MemSize for Counted {
            fn mem_size(&self) -> usize {
                0
            }
            fn spillable() -> bool {
                true
            }
            fn spill_encode(&self, _out: &mut Vec<u8>) {}
            fn spill_decode(_input: &mut SpillCursor<'_>) -> Option<Self> {
                let steps = STEPS.get() + 1;
                assert!(steps <= 64, "decode loop ran away on a lying count");
                STEPS.set(steps);
                Some(Counted)
            }
        }
        for lie in [u64::MAX, 1 << 32, MAX_EMPTY_RECORDS as u64 + 1] {
            STEPS.set(0);
            assert_eq!(decode_block::<Counted>(&lie.to_le_bytes()), None);
            assert_eq!(STEPS.get(), 1, "count {lie:#x}");
            // Nested, the outer records do consume bytes; the inner lie
            // is still the first thing its decoder meets.
            let mut nested = 1u64.to_le_bytes().to_vec();
            nested.extend_from_slice(&lie.to_le_bytes());
            assert_eq!(decode_block::<Vec<()>>(&nested), None);
        }
        // An honest count still decodes, one step per record.
        STEPS.set(0);
        let three = decode_block::<Counted>(&3u64.to_le_bytes()).expect("three units");
        assert_eq!((three.len(), STEPS.get()), (3, 3));
    }

    /// Mutation fuzz over the block codec: a truncated block never
    /// decodes; no truncation, bit flip or length lie panics, and whatever
    /// still decodes re-encodes and was not allocated past its input.
    #[test]
    fn mutated_blocks_never_panic_and_truncations_never_decode() {
        fn fuzz<T: MemSize + PartialEq + std::fmt::Debug>(block: Vec<T>) {
            let mut bytes = Vec::new();
            block.spill_encode(&mut bytes);
            assert_eq!(decode_block::<T>(&bytes).as_ref(), Some(&block));
            spangle_testkit::for_each_mutation(&bytes, |mutated| {
                // Unframed, a flip may decode to a different value — the
                // frame checksum exists for that — but never from a prefix
                // and never to more records than the input has bytes for.
                let Some(decoded) = decode_block::<T>(mutated) else {
                    return;
                };
                assert!(mutated.len() >= bytes.len(), "a truncation decoded");
                // Zero-sized records own no heap: only their count is bounded.
                if std::mem::size_of::<T>() == 0 {
                    assert!(decoded.len() <= MAX_EMPTY_RECORDS);
                } else {
                    assert!(decoded.capacity() <= mutated.len().max(block.len()));
                }
                let mut again = Vec::new();
                decoded.spill_encode(&mut again);
                assert_eq!(again, mutated);
            });
        }
        spangle_testkit::run_cases(0xB10C_C0DE, 12, |rng| {
            fuzz(rng.vec_of(0..6, |r| (r.next_u64(), r.next_u64())));
            fuzz(rng.vec_of(0..5, |r| (r.next_u64(), r.vec_of(0..4, |r| r.f64_unit()))));
            fuzz(rng.vec_of(0..4, |r| {
                let key = (r.next_u64(), r.next_u64());
                (r.next_u64(), r.next_u64(), key, r.next_u64(), r.next_u64())
            }));
            fuzz(rng.vec_of(0..4, |_| ()));
            fuzz(rng.vec_of(0..4, |r| (r.next_u64(), ())));
        });
    }
}
