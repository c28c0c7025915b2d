//! The one frame format, and its one user: a spill file is one frame.
//!
//! ```text
//! magic: [u8; 4] | kind: u8 | len: u64 LE | sum: u64 LE | payload (len bytes)
//! ```
//!
//! A frame that is short, oversized, carries the wrong magic or a
//! mismatched checksum is *torn*, and the spill tier reads a torn file as a
//! lost block.
//!
//! # The checksum
//!
//! `sum` covers the kind byte, the length and the payload. The payload is
//! read as little-endian `u64` words dealt round-robin to [`LANES`]
//! independent lanes (the ragged tail zero-padded to whole words — the
//! length is summed too, so padding is never ambiguous); each lane folds
//! its words with [`fold`], and the lanes' final states are folded, in lane
//! order, into one state seeded with the kind and the length. Independent
//! lanes are what let the fold run at memory speed: a lane's next multiply
//! waits only on that lane, so four are in flight at once where a
//! byte-at-a-time FNV-1a has one.
//!
//! **Every single-bit flip of the kind byte or the payload changes the
//! sum.** [`fold`]`(state, word)` is `xor`, multiply by an odd constant,
//! rotate: for a fixed `word` it is a bijection of `state`, and for a fixed
//! `state` a bijection of `word`. A flipped payload bit changes exactly one
//! word, fed to one lane at one step: that step sees the same state and a
//! different word, so it leaves a different state; every later step of the
//! lane maps different states to different states for its (unchanged)
//! input, so the lane ends different; the combining chain then meets the
//! same state and a different word at that lane's step, and is bijective in
//! its state for the lanes after it. A flipped kind bit changes the seed of
//! the combining chain, every step of which is bijective in its state. A
//! flipped bit of the stored sum fails the comparison itself. A flipped
//! length bit makes the reader consume a different number of bytes: more
//! than exist is a short payload, fewer leaves a remainder the spill store
//! refuses, and either way the length is part of the sum. Truncation is a
//! short header or a short payload before the sum is ever consulted.
//!
//! What it is not: a MAC. The constants are public and the steps
//! invertible, so anyone who can write the file can fix the sum up; the
//! check is against torn and bit-rotted files, which is all a spill
//! directory private to one process (and deleted with it) has to fear.
//! Changes touching two or more words can cancel with probability ≈ 2⁻⁶⁴.
//!
//! The reader never trusts the header's `len` with memory: the payload
//! buffer is sized by `len` *capped at the bytes the caller says exist* (a
//! file's own length), so a bit-flipped length costs a torn frame, not
//! gigabytes.

use std::io::{self, Read};

/// Frame magic; bump when the framing or the checksum changes. Spill files
/// never outlive their process, so no reader meets an older magic.
const MAGIC: [u8; 4] = *b"SPL3";

/// Largest payload a header may claim: far above any block one process
/// can hold, so a length beyond it is corruption before a byte is read.
const MAX_PAYLOAD: u64 = 1 << 40;

/// Bytes of framing before the payload.
pub(crate) const HEADER_LEN: usize = 4 + 1 + 8 + 8;

/// Independent fold chains the payload's words are dealt to.
const LANES: usize = 4;

/// Payload bytes consumed per round: one word per lane.
const STRIDE: usize = LANES * 8;

/// Lane seeds: distinct, so equal words in different lanes fold to
/// different states (the first is FNV-1a's offset basis, the rest are it
/// advanced by the golden-ratio increment).
const SEEDS: [u64; LANES] = [
    0xcbf2_9ce4_8422_2325,
    0x6a2a_169e_036c_9f3a,
    0x0861_9057_82b7_1b4f,
    0xa699_0a11_0201_9764,
];

/// Odd, so multiplying by it is a bijection of `u64` (FNV-1a's prime).
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// One fold step. Bijective in `state` for a fixed `word` and in `word` for
/// a fixed `state`: `xor`, an odd multiply and a rotation are each
/// invertible. The rotation carries the multiply's high bits back down, so
/// a flip in a word's top bits does not stay in the top bits.
#[inline(always)]
fn fold(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(PRIME).rotate_left(29)
}

fn checksum(kind: u8, payload: &[u8]) -> u64 {
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8-byte word"));
    let mut lanes = SEEDS;
    let mut strides = payload.chunks_exact(STRIDE);
    for stride in &mut strides {
        for (lane, bytes) in lanes.iter_mut().zip(stride.chunks_exact(8)) {
            *lane = fold(*lane, word(bytes));
        }
    }
    let tail = strides.remainder();
    let mut padded = [0u8; STRIDE];
    padded[..tail.len()].copy_from_slice(tail);
    let tail_words = padded.chunks_exact(8).take(tail.len().div_ceil(8));
    for (lane, bytes) in lanes.iter_mut().zip(tail_words) {
        *lane = fold(*lane, word(bytes));
    }
    let seeded = fold(fold(SEEDS[0], kind as u64), payload.len() as u64);
    lanes.into_iter().fold(seeded, fold)
}

/// The bytes do not make a frame; names the check that said so. Every
/// reason means the same thing to the spill tier — the block is lost.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct FrameError(pub(crate) &'static str);

/// The framing that precedes `payload`: written first, then the payload
/// itself, so framing a block never copies it.
pub(crate) fn header(kind: u8, payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..4].copy_from_slice(&MAGIC);
    out[4] = kind;
    out[5..13].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    out[13..].copy_from_slice(&checksum(kind, payload).to_le_bytes());
    out
}

/// Reads and verifies one frame, returning its kind and payload.
/// `available` is how many bytes the caller knows `r` can still yield (a
/// file's length, a slice's); it only caps the payload buffer's first
/// allocation, so an honest frame is read into a buffer of exactly its
/// size and a lying length buys nothing.
pub(crate) fn read(r: &mut impl Read, available: usize) -> Result<(u8, Vec<u8>), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError("end of input")),
            Ok(0) => return Err(FrameError("short header")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(FrameError("read failed")),
        }
    }
    if header[..4] != MAGIC {
        return Err(FrameError("bad magic"));
    }
    let kind = header[4];
    let len = u64::from_le_bytes(header[5..13].try_into().expect("8-byte slice"));
    let sum = u64::from_le_bytes(header[13..21].try_into().expect("8-byte slice"));
    if len > MAX_PAYLOAD {
        return Err(FrameError("oversized payload"));
    }
    let mut payload = Vec::new();
    read_payload(r, len, available.saturating_sub(HEADER_LEN), &mut payload)?;
    if checksum(kind, &payload) != sum {
        return Err(FrameError("checksum mismatch"));
    }
    Ok((kind, payload))
}

/// Appends exactly `len` bytes of `r` to `payload`, reserving
/// `min(len, available)` up front: beyond what the caller vouched for, the
/// buffer grows only as bytes arrive.
fn read_payload(
    r: &mut impl Read,
    len: u64,
    available: usize,
    payload: &mut Vec<u8>,
) -> Result<(), FrameError> {
    payload.reserve_exact(usize::try_from(len).map_or(available, |len| len.min(available)));
    match r.take(len).read_to_end(payload) {
        Ok(n) if n as u64 == len => Ok(()),
        Ok(_) => Err(FrameError("short payload")),
        Err(_) => Err(FrameError("read failed")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Header and payload in one buffer.
    fn encode(kind: u8, payload: &[u8]) -> Vec<u8> {
        [&header(kind, payload)[..], payload].concat()
    }

    fn read_all(bytes: &[u8]) -> Result<(u8, Vec<u8>), FrameError> {
        read(&mut &bytes[..], bytes.len())
    }

    #[test]
    fn frames_roundtrip_and_eof_is_clean_only_at_a_boundary() {
        let framed = encode(7, b"hello frame");
        assert_eq!(framed.len(), HEADER_LEN + 11);
        let (kind, payload) = read_all(&framed).unwrap();
        assert_eq!((kind, payload.as_slice()), (7, &b"hello frame"[..]));
        assert_eq!(payload.capacity(), 11, "sized once, from what exists");
        assert_eq!(read_all(&[]), Err(FrameError("end of input")));
        assert_eq!(read_all(&framed[..3]), Err(FrameError("short header")));
        // Two frames back to back read one at a time.
        let mut two = framed.clone();
        two.extend_from_slice(&encode(8, b""));
        let mut input = &two[..];
        assert_eq!(read(&mut input, two.len()).unwrap().0, 7);
        assert_eq!(read(&mut input, two.len()).unwrap(), (8, vec![]));
        assert_eq!(read(&mut input, two.len()), Err(FrameError("end of input")));
        // A caller that vouches for nothing still reads the frame.
        assert_eq!(read(&mut &framed[..], 0).unwrap().1, b"hello frame");
    }

    #[test]
    fn wrong_magic_oversize_and_flipped_kind_are_torn() {
        let framed = encode(1, b"payload");
        let mut stranger = framed.clone();
        stranger[..4].copy_from_slice(b"XXXX");
        assert_eq!(read_all(&stranger), Err(FrameError("bad magic")));
        let mut oversized = framed.clone();
        oversized[5..13].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(read_all(&oversized), Err(FrameError("oversized payload")));
        // The checksum covers the kind byte.
        let mut flipped = framed.clone();
        flipped[4] ^= 1;
        assert_eq!(read_all(&flipped), Err(FrameError("checksum mismatch")));
    }

    /// Bugfix regression: the reader used to allocate the header's
    /// claimed length before one payload byte had arrived. It now sizes
    /// the buffer up front, but only as far as bytes are known to exist.
    #[test]
    fn a_lying_length_costs_torn_not_memory() {
        let claim = 1u64 << 32;
        let mut lie = encode(1, b"");
        lie[5..13].copy_from_slice(&claim.to_le_bytes());
        lie.extend_from_slice(&[1, 2, 3]);
        assert_eq!(read_all(&lie), Err(FrameError("short payload")));
        let mut payload = Vec::new();
        let fed = [1u8, 2, 3];
        assert!(read_payload(&mut &fed[..], claim, fed.len(), &mut payload).is_err());
        assert_eq!(payload, fed);
        assert!(
            payload.capacity() <= 64,
            "buffer sized from the claim: {}",
            payload.capacity()
        );
    }

    /// Zero padding of the ragged tail is unambiguous: payloads that
    /// differ only in trailing zero bytes, or in which lane a word lands,
    /// have different sums.
    #[test]
    fn trailing_zeros_and_lane_placement_change_the_sum() {
        let sums: Vec<u64> = (0..=2 * STRIDE)
            .map(|len| checksum(0, &vec![0u8; len]))
            .collect();
        let mut distinct = sums.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), sums.len(), "all-zero payloads by length");
        let mut a = [0u8; STRIDE];
        let mut b = [0u8; STRIDE];
        a[0] = 1;
        b[8] = 1;
        assert_ne!(checksum(0, &a), checksum(0, &b), "same word, other lane");
    }

    /// Mutation fuzz: every truncation and every single-bit flip of a
    /// valid frame reads as an error, buffering no more than was fed.
    /// Payloads run past four full strides plus a ragged tail, so a flip
    /// lands in every lane at several depths, in a padded tail word, and
    /// (kind, length and sum bytes) in the lane-combining chain.
    #[test]
    fn mutated_frames_never_read_ok() {
        let mut longest = 0;
        spangle_testkit::run_cases(0xF8A3_E001, 24, |rng| {
            let payload = rng.vec_of(0..5 * STRIDE + 8, |r| r.next_u64() as u8);
            longest = longest.max(payload.len());
            let framed = encode(rng.next_u64() as u8, &payload);
            assert!(read_all(&framed).is_ok());
            for cut in 0..framed.len() {
                assert!(read_all(&framed[..cut]).is_err(), "cut at {cut}");
            }
            for bit in 0..framed.len() * 8 {
                let mut mutated = framed.clone();
                mutated[bit / 8] ^= 1 << (bit % 8);
                assert!(read_all(&mutated).is_err(), "bit {bit}");
            }
            // Length-field lies, with the buffer observed directly.
            let lie = rng.next_u64() | (1 << 40);
            let mut buf = Vec::new();
            assert!(read_payload(&mut &payload[..], lie, payload.len(), &mut buf).is_err());
            assert!(buf.capacity() <= 2 * payload.len() + 64);
        });
        assert!(
            longest > 4 * STRIDE,
            "no case reached past four lane strides: {longest}"
        );
    }
}
