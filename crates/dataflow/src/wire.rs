//! The length-prefixed wire protocol spoken between the driver and the
//! worker processes of the multi-process executor backend.
//!
//! Messages are hand-rolled over the spill primitives (`put_len` and
//! `SpillCursor`) — no serialization framework, std only — and travel in
//! the crate's one frame (`frame.rs`: the same header and checksum the
//! spill files use) under the `SPW2` magic, the frame kind naming the
//! message type. A
//! frame the reader rejects, an unknown type, or a payload its type cannot
//! decode is *torn*: the reader reports `FrameError::Torn` and the
//! connection is considered broken — the failure discipline above this
//! layer turns that into a typed fetch failure or a worker-loss wait,
//! never into silently truncated data.
//!
//! The protocol is deliberately small: a worker announces itself with
//! `Hello`, keeps itself alive with `Heartbeat` (stamped into the
//! driver's `HealthBoard` by the session reader thread), and otherwise
//! answers driver `Request`s (`Run` a named operator, `Get` a stored
//! block, `Stats`, `Shutdown`) with correlated `Reply` frames.

use crate::backend::WorkerStats;
use crate::frame::{self, FrameError};
use crate::memsize::{decode_records, encode_records, put_len, MemSize, SpillCursor};
use std::io::{Read, Write};

/// Frame preamble, first on the wire; bump when the framing changes.
pub(crate) const MAGIC: [u8; 4] = *b"SPW2";

/// Upper bound a reader accepts for one payload; anything larger is torn
/// (a corrupted length prefix would otherwise swallow every later frame
/// on the stream as its payload).
pub(crate) const MAX_FRAME_PAYLOAD: u64 = 1 << 32;

const FRAME_HELLO: u8 = 1;
const FRAME_HEARTBEAT: u8 = 2;
const FRAME_REQUEST: u8 = 3;
const FRAME_REPLY: u8 = 4;

const REQ_RUN: u8 = 1;
const REQ_GET: u8 = 2;
const REQ_STATS: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;

const REPLY_RUN_OK: u8 = 0;
const REPLY_GET_OK: u8 = 1;
const REPLY_STATS_OK: u8 = 2;
const REPLY_NOT_FOUND: u8 = 3;
const REPLY_OP_ERROR: u8 = 4;
const REPLY_SHUTTING_DOWN: u8 = 5;

const INPUT_INLINE: u8 = 0;
const INPUT_LOCAL: u8 = 1;

/// Identity of one block in a worker's store. The remote data plane keys
/// blocks `(namespace, index)` where the namespace is a driver-allocated
/// RDD-id-like tag, so deterministic replay regenerates the same key.
pub type BlockKey = (u64, u64);

/// Size and checksum of one stored block, as reported by the worker that
/// holds it. The fetch path verifies the checksum end to end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockMeta {
    /// Encoded length of the block in bytes.
    pub len: u64,
    /// FNV-1a64 of the encoded block.
    pub checksum: u64,
}

/// One operator input: bytes shipped inline with the request, or a key
/// into the worker's own store (the local fast path).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpInput {
    /// The encoded input travels with the request.
    Inline(Vec<u8>),
    /// The input is already resident on the worker under this key.
    Local(BlockKey),
}

/// A driver-to-worker request body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum RequestBody {
    /// Run the named registry operator over `inputs`, storing its outputs
    /// under `out_keys` and replying with their [`BlockMeta`]s. Re-running
    /// with outputs already stored is answered from the store (operators
    /// are deterministic, so the cached bytes are the recompute's bytes).
    Run {
        /// Registry name of the operator.
        op: String,
        /// Operator argument bytes (the operator defines the encoding).
        args: Vec<u8>,
        /// Operator inputs, in operator-defined order.
        inputs: Vec<OpInput>,
        /// Store keys for the operator's outputs, one per output.
        out_keys: Vec<BlockKey>,
    },
    /// Fetch one stored block's bytes.
    Get {
        /// Key of the block to fetch.
        key: BlockKey,
    },
    /// Report the worker's store size, epoch, and pid.
    Stats,
    /// Drain and exit.
    Shutdown,
}

/// A worker-to-driver reply body, correlated by request id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ReplyBody {
    /// `Run` succeeded; one meta per requested output key.
    RunOk(Vec<BlockMeta>),
    /// `Get` found the block.
    GetOk(Vec<u8>),
    /// `Stats` snapshot.
    StatsOk(WorkerStats),
    /// `Get` found nothing under the key.
    NotFound,
    /// The operator returned an error (a *task* failure, not a transport
    /// failure: the worker is healthy and the message explains the op).
    OpError(String),
    /// Acknowledges `Shutdown`; the worker exits after sending this.
    ShuttingDown,
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Frame {
    /// First frame a worker sends: which slot and incarnation it serves.
    Hello {
        /// Executor slot the worker owns.
        slot: u64,
        /// Incarnation it was spawned for.
        epoch: u64,
    },
    /// Periodic keepalive. `beats` increments per frame; `op_progress`
    /// increments only while an operator body is advancing, so the
    /// driver's no-progress watchdog keeps working through this backend.
    Heartbeat {
        /// Monotone keepalive counter.
        beats: u64,
        /// Monotone operator-progress counter.
        op_progress: u64,
    },
    /// A driver request.
    Request {
        /// Correlates the eventual reply.
        req_id: u64,
        /// What to do.
        body: RequestBody,
    },
    /// A worker reply.
    Reply {
        /// The request this answers.
        req_id: u64,
        /// The answer.
        body: ReplyBody,
    },
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Byte strings travel as a length prefix plus the raw bytes — what the
/// block codec writes for a `Vec<u8>`, copied in bulk.
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

fn take_bytes(cur: &mut SpillCursor<'_>) -> Option<Vec<u8>> {
    let n = cur.len_prefix()?;
    cur.take(n).map(|b| b.to_vec())
}

impl Frame {
    fn frame_type(&self) -> u8 {
        match self {
            Frame::Hello { .. } => FRAME_HELLO,
            Frame::Heartbeat { .. } => FRAME_HEARTBEAT,
            Frame::Request { .. } => FRAME_REQUEST,
            Frame::Reply { .. } => FRAME_REPLY,
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Hello { slot, epoch } => {
                put_u64(&mut out, *slot);
                put_u64(&mut out, *epoch);
            }
            Frame::Heartbeat { beats, op_progress } => {
                put_u64(&mut out, *beats);
                put_u64(&mut out, *op_progress);
            }
            Frame::Request { req_id, body } => {
                put_u64(&mut out, *req_id);
                match body {
                    RequestBody::Run {
                        op,
                        args,
                        inputs,
                        out_keys,
                    } => {
                        out.push(REQ_RUN);
                        put_bytes(&mut out, op.as_bytes());
                        put_bytes(&mut out, args);
                        encode_records(out_keys, &mut out);
                        put_len(&mut out, inputs.len());
                        for input in inputs {
                            match input {
                                OpInput::Inline(bytes) => {
                                    out.push(INPUT_INLINE);
                                    put_bytes(&mut out, bytes);
                                }
                                OpInput::Local(key) => {
                                    out.push(INPUT_LOCAL);
                                    key.spill_encode(&mut out);
                                }
                            }
                        }
                    }
                    RequestBody::Get { key } => {
                        out.push(REQ_GET);
                        key.spill_encode(&mut out);
                    }
                    RequestBody::Stats => out.push(REQ_STATS),
                    RequestBody::Shutdown => out.push(REQ_SHUTDOWN),
                }
            }
            Frame::Reply { req_id, body } => {
                put_u64(&mut out, *req_id);
                match body {
                    ReplyBody::RunOk(metas) => {
                        out.push(REPLY_RUN_OK);
                        put_len(&mut out, metas.len());
                        for meta in metas {
                            put_u64(&mut out, meta.len);
                            put_u64(&mut out, meta.checksum);
                        }
                    }
                    ReplyBody::GetOk(bytes) => {
                        out.push(REPLY_GET_OK);
                        put_bytes(&mut out, bytes);
                    }
                    ReplyBody::StatsOk(stats) => {
                        out.push(REPLY_STATS_OK);
                        for v in [stats.blocks, stats.bytes, stats.epoch, stats.pid] {
                            put_u64(&mut out, v);
                        }
                    }
                    ReplyBody::NotFound => out.push(REPLY_NOT_FOUND),
                    ReplyBody::OpError(msg) => {
                        out.push(REPLY_OP_ERROR);
                        put_bytes(&mut out, msg.as_bytes());
                    }
                    ReplyBody::ShuttingDown => out.push(REPLY_SHUTTING_DOWN),
                }
            }
        }
        out
    }

    fn decode_payload(frame_type: u8, payload: &[u8]) -> Option<Frame> {
        let mut cur = SpillCursor::new(payload);
        let frame = match frame_type {
            FRAME_HELLO => Frame::Hello {
                slot: cur.u64()?,
                epoch: cur.u64()?,
            },
            FRAME_HEARTBEAT => Frame::Heartbeat {
                beats: cur.u64()?,
                op_progress: cur.u64()?,
            },
            FRAME_REQUEST => {
                let req_id = cur.u64()?;
                let body = match cur.u8()? {
                    REQ_RUN => {
                        let op = String::from_utf8(take_bytes(&mut cur)?).ok()?;
                        let args = take_bytes(&mut cur)?;
                        let out_keys = decode_records(&mut cur)?;
                        let n_inputs = cur.len_prefix()?;
                        let mut inputs = Vec::with_capacity(n_inputs.min(cur.remaining()));
                        for _ in 0..n_inputs {
                            inputs.push(match cur.u8()? {
                                INPUT_INLINE => OpInput::Inline(take_bytes(&mut cur)?),
                                INPUT_LOCAL => OpInput::Local(BlockKey::spill_decode(&mut cur)?),
                                _ => return None,
                            });
                        }
                        RequestBody::Run {
                            op,
                            args,
                            inputs,
                            out_keys,
                        }
                    }
                    REQ_GET => RequestBody::Get {
                        key: BlockKey::spill_decode(&mut cur)?,
                    },
                    REQ_STATS => RequestBody::Stats,
                    REQ_SHUTDOWN => RequestBody::Shutdown,
                    _ => return None,
                };
                Frame::Request { req_id, body }
            }
            FRAME_REPLY => {
                let req_id = cur.u64()?;
                let body = match cur.u8()? {
                    REPLY_RUN_OK => {
                        let n = cur.len_prefix()?;
                        let mut metas = Vec::with_capacity(n.min(cur.remaining()));
                        for _ in 0..n {
                            metas.push(BlockMeta {
                                len: cur.u64()?,
                                checksum: cur.u64()?,
                            });
                        }
                        ReplyBody::RunOk(metas)
                    }
                    REPLY_GET_OK => ReplyBody::GetOk(take_bytes(&mut cur)?),
                    REPLY_STATS_OK => ReplyBody::StatsOk(WorkerStats {
                        blocks: cur.u64()?,
                        bytes: cur.u64()?,
                        epoch: cur.u64()?,
                        pid: cur.u64()?,
                    }),
                    REPLY_NOT_FOUND => ReplyBody::NotFound,
                    REPLY_OP_ERROR => {
                        ReplyBody::OpError(String::from_utf8(take_bytes(&mut cur)?).ok()?)
                    }
                    REPLY_SHUTTING_DOWN => ReplyBody::ShuttingDown,
                    _ => return None,
                };
                Frame::Reply { req_id, body }
            }
            _ => return None,
        };
        (cur.remaining() == 0).then_some(frame)
    }

    /// Encodes the full frame (header + payload) into one buffer, ready
    /// for a single `write_all`.
    pub(crate) fn encode(&self) -> Vec<u8> {
        frame::encode(MAGIC, self.frame_type(), &self.encode_payload())
    }
}

/// Writes one frame. A single buffered `write_all` keeps frames atomic
/// with respect to interleaved writers sharing the stream behind a lock.
pub(crate) fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.encode())?;
    w.flush()
}

/// Reads and validates one frame. [`FrameError::Eof`] means the peer
/// closed cleanly between frames; everything else means the connection is
/// broken and must not be read again.
pub(crate) fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let (frame_type, payload) = frame::read(r, MAGIC, MAX_FRAME_PAYLOAD)?;
    Frame::decode_payload(frame_type, &payload).ok_or(FrameError::Torn("undecodable payload"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = frame.encode();
        let mut cursor = std::io::Cursor::new(bytes);
        let back = read_frame(&mut cursor).expect("frame must decode");
        assert_eq!(back, frame);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Hello { slot: 3, epoch: 7 });
        roundtrip(Frame::Heartbeat {
            beats: 42,
            op_progress: 9,
        });
        roundtrip(Frame::Request {
            req_id: 11,
            body: RequestBody::Run {
                op: "pr.contrib".into(),
                args: vec![1, 2, 3],
                inputs: vec![OpInput::Inline(vec![4, 5]), OpInput::Local((8, 9))],
                out_keys: vec![(1, 0), (1, 1)],
            },
        });
        roundtrip(Frame::Request {
            req_id: 12,
            body: RequestBody::Get { key: (5, 6) },
        });
        roundtrip(Frame::Request {
            req_id: 13,
            body: RequestBody::Stats,
        });
        roundtrip(Frame::Request {
            req_id: 14,
            body: RequestBody::Shutdown,
        });
        roundtrip(Frame::Reply {
            req_id: 11,
            body: ReplyBody::RunOk(vec![BlockMeta {
                len: 10,
                checksum: 0xDEAD,
            }]),
        });
        roundtrip(Frame::Reply {
            req_id: 12,
            body: ReplyBody::GetOk(vec![7; 100]),
        });
        roundtrip(Frame::Reply {
            req_id: 13,
            body: ReplyBody::StatsOk(WorkerStats {
                blocks: 2,
                bytes: 64,
                epoch: 1,
                pid: 4242,
            }),
        });
        roundtrip(Frame::Reply {
            req_id: 14,
            body: ReplyBody::NotFound,
        });
        roundtrip(Frame::Reply {
            req_id: 15,
            body: ReplyBody::OpError("boom".into()),
        });
        roundtrip(Frame::Reply {
            req_id: 16,
            body: ReplyBody::ShuttingDown,
        });
    }

    #[test]
    fn clean_eof_at_frame_boundary_is_eof_not_torn() {
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Eof)));
    }

    #[test]
    fn short_frames_are_torn_not_eof() {
        let full = Frame::Hello { slot: 1, epoch: 2 }.encode();
        // Truncate inside the header and inside the payload.
        for cut in [1, 10, full.len() - 1] {
            let mut cursor = std::io::Cursor::new(full[..cut].to_vec());
            assert!(
                matches!(read_frame(&mut cursor), Err(FrameError::Torn(_))),
                "cut at {cut} must be torn"
            );
        }
    }

    #[test]
    fn corrupted_frames_are_torn() {
        let mut bad_magic = Frame::Hello { slot: 1, epoch: 2 }.encode();
        bad_magic[0] = b'X';
        let mut cursor = std::io::Cursor::new(bad_magic);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Torn(_))));

        // Flip one payload byte: the checksum must catch it.
        let mut bad_crc = Frame::Heartbeat {
            beats: 1,
            op_progress: 2,
        }
        .encode();
        let last = bad_crc.len() - 1;
        bad_crc[last] ^= 0xFF;
        let mut cursor = std::io::Cursor::new(bad_crc);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Torn("checksum mismatch"))
        ));

        // An absurd length prefix must be refused before allocating.
        let mut oversized = Frame::Hello { slot: 1, epoch: 2 }.encode();
        oversized[5..13].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut cursor = std::io::Cursor::new(oversized);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Torn("oversized payload"))
        ));
    }

    #[test]
    fn unknown_frame_types_and_trailing_bytes_are_torn() {
        let inner = Frame::Hello { slot: 1, epoch: 2 };
        let unknown = frame::encode(MAGIC, 200, &inner.encode_payload());
        let mut cursor = std::io::Cursor::new(unknown);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Torn("undecodable payload"))
        ));

        // A payload with trailing garbage (but a matching checksum) is
        // still refused: every byte must be consumed by the decoder.
        let mut payload = vec![];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&2u64.to_le_bytes());
        payload.push(99);
        let framed = frame::encode(MAGIC, inner.frame_type(), &payload);
        let mut cursor = std::io::Cursor::new(framed);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Torn(_))));
    }
    fn random_frame(rng: &mut spangle_testkit::Rng) -> Frame {
        let bytes = |rng: &mut spangle_testkit::Rng| rng.vec_of(0..12, |r| r.next_u64() as u8);
        let key = |rng: &mut spangle_testkit::Rng| (rng.next_u64(), rng.next_u64());
        let req_id = rng.next_u64();
        match rng.usize_in(0..6) {
            0 => Frame::Hello {
                slot: rng.next_u64(),
                epoch: rng.next_u64(),
            },
            1 => Frame::Heartbeat {
                beats: rng.next_u64(),
                op_progress: rng.next_u64(),
            },
            2 => Frame::Request {
                req_id,
                body: RequestBody::Run {
                    op: "sum.merge".into(),
                    args: bytes(rng),
                    inputs: rng.vec_of(0..4, |r| {
                        if r.bool() {
                            OpInput::Inline(bytes(r))
                        } else {
                            OpInput::Local(key(r))
                        }
                    }),
                    out_keys: rng.vec_of(0..4, key),
                },
            },
            3 => Frame::Request {
                req_id,
                body: RequestBody::Get { key: key(rng) },
            },
            4 => Frame::Reply {
                req_id,
                body: ReplyBody::RunOk(rng.vec_of(0..4, |r| BlockMeta {
                    len: r.next_u64(),
                    checksum: r.next_u64(),
                })),
            },
            _ => Frame::Reply {
                req_id,
                body: ReplyBody::GetOk(bytes(rng)),
            },
        }
    }

    /// Mutation fuzz: a mutated framed message never reads as `Ok`, and
    /// the payload decoder alone (no checksum in front of it) never
    /// panics, never accepts a truncation, and never pre-allocates past
    /// its input.
    #[test]
    fn mutated_messages_never_decode_from_a_frame_and_never_panic_without_one() {
        spangle_testkit::run_cases(0x3173_F022, 48, |rng| {
            let frame = random_frame(rng);
            let framed = frame.encode();
            for cut in 0..framed.len() {
                assert!(read_frame(&mut &framed[..cut]).is_err(), "cut at {cut}");
            }
            for bit in 0..framed.len() * 8 {
                let mut mutated = framed.clone();
                mutated[bit / 8] ^= 1 << (bit % 8);
                assert!(read_frame(&mut &mutated[..]).is_err(), "bit {bit}");
            }
            let (kind, payload) = (frame.frame_type(), frame.encode_payload());
            assert_eq!(Frame::decode_payload(kind, &payload), Some(frame));
            for cut in 0..payload.len() {
                assert_eq!(Frame::decode_payload(kind, &payload[..cut]), None);
            }
            for bit in 0..payload.len() * 8 {
                let mut mutated = payload.clone();
                mutated[bit / 8] ^= 1 << (bit % 8);
                if let Some(Frame::Request {
                    body:
                        RequestBody::Run {
                            inputs, out_keys, ..
                        },
                    ..
                }) = Frame::decode_payload(kind, &mutated)
                {
                    assert!(inputs.capacity().max(out_keys.capacity()) <= mutated.len());
                }
            }
        });
    }
}
