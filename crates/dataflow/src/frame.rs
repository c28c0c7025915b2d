//! The one frame format, and its one user: a spill file is one frame.
//!
//! ```text
//! magic: [u8; 4] | kind: u8 | len: u64 LE | sum: u64 LE | payload (len bytes)
//! ```
//!
//! `sum` is the FNV-1a64 of the kind byte followed by the payload, so a
//! flipped kind is caught like a flipped payload byte. A frame that is
//! short, oversized, carries the wrong magic or a mismatched checksum is
//! *torn*, and the spill tier reads a torn file as a lost block.
//!
//! The reader never sizes a buffer from the header's `len`: the payload
//! buffer grows with the bytes that actually arrive, so a bit-flipped
//! length costs a torn frame, not gigabytes.

use std::io::{self, Read};

/// Frame magic; bump when the framing changes.
const MAGIC: [u8; 4] = *b"SPL2";

/// Largest payload a header may claim: far above any block one process
/// can hold, so a length beyond it is corruption before a byte is read.
const MAX_PAYLOAD: u64 = 1 << 40;

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

fn checksum(kind: u8, payload: &[u8]) -> u64 {
    fold(fold(FNV_OFFSET, &[kind]), payload)
}

/// The bytes do not make a frame; names the check that said so. Every
/// reason means the same thing to the spill tier — the block is lost.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct FrameError(pub(crate) &'static str);

/// Header and payload in one buffer, ready for a single `write_all`.
pub(crate) fn encode(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(kind, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Reads and verifies one frame, returning its kind and payload.
pub(crate) fn read(r: &mut impl Read) -> Result<(u8, Vec<u8>), FrameError> {
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
    read_payload(r, len, &mut payload)?;
    if checksum(kind, &payload) != sum {
        return Err(FrameError("checksum mismatch"));
    }
    Ok((kind, payload))
}

/// Appends exactly `len` bytes of `r` to `payload`, growing the buffer
/// only as bytes arrive.
fn read_payload(r: &mut impl Read, len: u64, payload: &mut Vec<u8>) -> Result<(), FrameError> {
    match r.take(len).read_to_end(payload) {
        Ok(n) if n as u64 == len => Ok(()),
        Ok(_) => Err(FrameError("short payload")),
        Err(_) => Err(FrameError("read failed")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(bytes: &[u8]) -> Result<(u8, Vec<u8>), FrameError> {
        read(&mut &bytes[..])
    }

    #[test]
    fn frames_roundtrip_and_eof_is_clean_only_at_a_boundary() {
        let framed = encode(7, b"hello frame");
        assert_eq!(framed.len(), HEADER_LEN + 11);
        let (kind, payload) = read_all(&framed).unwrap();
        assert_eq!((kind, payload.as_slice()), (7, &b"hello frame"[..]));
        assert_eq!(read_all(&[]), Err(FrameError("end of input")));
        assert_eq!(read_all(&framed[..3]), Err(FrameError("short header")));
        // Two frames back to back read one at a time.
        let mut two = framed.clone();
        two.extend_from_slice(&encode(8, b""));
        let mut input = &two[..];
        assert_eq!(read(&mut input).unwrap().0, 7);
        assert_eq!(read(&mut input).unwrap(), (8, vec![]));
        assert_eq!(read(&mut input), Err(FrameError("end of input")));
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
    /// claimed length before one payload byte had arrived.
    #[test]
    fn a_lying_length_costs_torn_not_memory() {
        let claim = 1u64 << 32;
        let mut lie = encode(1, b"");
        lie[5..13].copy_from_slice(&claim.to_le_bytes());
        lie.extend_from_slice(&[1, 2, 3]);
        assert_eq!(read_all(&lie), Err(FrameError("short payload")));
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
            assert!(read_payload(&mut &payload[..], lie, &mut buf).is_err());
            assert!(buf.capacity() <= 2 * payload.len() + 64);
        });
    }
}
