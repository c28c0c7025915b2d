//! The one frame format: spill files and driver↔worker wire frames.
//!
//! ```text
//! magic: [u8; 4] | kind: u8 | len: u64 LE | sum: u64 LE | payload (len bytes)
//! ```
//!
//! `sum` is the FNV-1a64 of the kind byte followed by the payload, so a
//! flipped kind is caught like a flipped payload byte. A frame that is
//! short, oversized, carries the wrong magic or a mismatched checksum is
//! *torn*; what torn means is the caller's business (a spill file reads as
//! a lost block, a wire connection is considered broken).
//!
//! The reader never sizes a buffer from the header's `len`: the payload
//! buffer grows with the bytes that actually arrive, so a bit-flipped
//! length costs a `Torn`, not gigabytes.

use std::io::{self, Read};

/// Bytes of framing before the payload.
pub(crate) const HEADER_LEN: usize = 4 + 1 + 8 + 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a 64-bit — the crate's one cheap, dependency-free corruption
/// check: frame checksums and the end-to-end block checksums of the
/// remote plane.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    fold(FNV_OFFSET, bytes)
}

fn checksum(kind: u8, payload: &[u8]) -> u64 {
    fold(fold(FNV_OFFSET, &[kind]), payload)
}

/// Why a frame could not be read.
#[derive(Debug)]
pub(crate) enum FrameError {
    /// Clean end of input at a frame boundary.
    Eof,
    /// Transport error mid-frame.
    Io(io::Error),
    /// The bytes do not make a frame; the source must not be read again.
    Torn(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Torn(why) => write!(f, "torn frame: {why}"),
        }
    }
}

/// Header and payload in one buffer, ready for a single `write_all`.
pub(crate) fn encode(magic: [u8; 4], kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(kind, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Reads and verifies one frame, returning its kind and payload.
pub(crate) fn read(
    r: &mut impl Read,
    magic: [u8; 4],
    max_payload: u64,
) -> Result<(u8, Vec<u8>), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Eof),
            // The peer died mid-header: a short read, not a clean close.
            Ok(0) => return Err(FrameError::Torn("short header")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    if header[..4] != magic {
        return Err(FrameError::Torn("bad magic"));
    }
    let kind = header[4];
    let len = u64::from_le_bytes(header[5..13].try_into().expect("8-byte slice"));
    let sum = u64::from_le_bytes(header[13..21].try_into().expect("8-byte slice"));
    if len > max_payload {
        return Err(FrameError::Torn("oversized payload"));
    }
    let mut payload = Vec::new();
    read_payload(r, len, &mut payload)?;
    if checksum(kind, &payload) != sum {
        return Err(FrameError::Torn("checksum mismatch"));
    }
    Ok((kind, payload))
}

/// Appends exactly `len` bytes of `r` to `payload`, growing the buffer
/// only as bytes arrive.
fn read_payload(r: &mut impl Read, len: u64, payload: &mut Vec<u8>) -> Result<(), FrameError> {
    match r.take(len).read_to_end(payload) {
        Ok(n) if n as u64 == len => Ok(()),
        Ok(_) => Err(FrameError::Torn("short payload")),
        Err(e) => Err(FrameError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TST1";

    fn read_all(bytes: &[u8]) -> Result<(u8, Vec<u8>), FrameError> {
        read(&mut &bytes[..], MAGIC, 1 << 20)
    }

    #[test]
    fn frames_roundtrip_and_eof_is_clean_only_at_a_boundary() {
        let framed = encode(MAGIC, 7, b"hello frame");
        assert_eq!(framed.len(), HEADER_LEN + 11);
        let (kind, payload) = read_all(&framed).unwrap();
        assert_eq!((kind, payload.as_slice()), (7, &b"hello frame"[..]));
        assert!(matches!(read_all(&[]), Err(FrameError::Eof)));
        // Two frames back to back read one at a time.
        let mut two = framed.clone();
        two.extend_from_slice(&encode(MAGIC, 8, b""));
        let mut input = &two[..];
        assert_eq!(read(&mut input, MAGIC, 1 << 20).unwrap().0, 7);
        assert_eq!(read(&mut input, MAGIC, 1 << 20).unwrap(), (8, vec![]));
        assert!(matches!(
            read(&mut input, MAGIC, 1 << 20),
            Err(FrameError::Eof)
        ));
    }

    #[test]
    fn wrong_magic_oversize_and_flipped_kind_are_torn() {
        let framed = encode(MAGIC, 1, b"payload");
        assert!(matches!(
            read(&mut &framed[..], *b"XXXX", 1 << 20),
            Err(FrameError::Torn("bad magic"))
        ));
        assert!(matches!(
            read(&mut &framed[..], MAGIC, 3),
            Err(FrameError::Torn("oversized payload"))
        ));
        // The checksum covers the kind byte.
        let mut flipped = framed.clone();
        flipped[4] ^= 1;
        assert!(matches!(
            read_all(&flipped),
            Err(FrameError::Torn("checksum mismatch"))
        ));
    }

    /// Bugfix regression: the wire reader used to allocate the header's
    /// claimed length before one payload byte had arrived.
    #[test]
    fn a_lying_length_costs_torn_not_memory() {
        let claim = 1u64 << 32;
        let mut lie = encode(MAGIC, 1, b"");
        lie[5..13].copy_from_slice(&claim.to_le_bytes());
        lie.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            read(&mut &lie[..], MAGIC, claim),
            Err(FrameError::Torn("short payload"))
        ));
        let mut payload = Vec::new();
        let fed = [1u8, 2, 3];
        assert!(read_payload(&mut &fed[..], claim, &mut payload).is_err());
        assert_eq!(payload, fed);
        assert!(
            payload.capacity() <= 64,
            "buffer sized from the claim: {}",
            payload.capacity()
        );
    }

    /// Mutation fuzz: every truncation and every single-bit flip of a
    /// valid frame reads as an error, buffering no more than was fed.
    #[test]
    fn mutated_frames_never_read_ok() {
        spangle_testkit::run_cases(0xF8A3_E001, 24, |rng| {
            let payload = rng.vec_of(0..48, |r| r.next_u64() as u8);
            let framed = encode(MAGIC, rng.next_u64() as u8, &payload);
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
            assert!(read_payload(&mut &payload[..], lie, &mut buf).is_err());
            assert!(buf.capacity() <= 2 * payload.len() + 64);
        });
    }
}
