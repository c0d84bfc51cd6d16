//! The serving wire protocol: length-prefixed, checksummed frames over the
//! compact serde codec.
//!
//! A frame is `[body len: u32 LE | body | FNV-1a(len bytes ‖ body): u64 LE]`
//! — the exact shape of a WAL record ([`crate::wal`]), for the same reason:
//! the checksum covers the length prefix, so a frame whose *length* bytes
//! were corrupted cannot trick the decoder into mis-slicing the stream and
//! then validating garbage against garbage. Bodies are the compact binary
//! serde encoding of [`ClientMsg`] / [`ServerMsg`] (fixed-width LE scalars,
//! `u32` variant tags, `u64` length prefixes — see the `serde` stand-in).
//!
//! Robustness properties, pinned by `tests/proto_roundtrip.rs`:
//!
//! * every message round-trips bitwise through [`write_frame`] /
//!   [`split_frame`];
//! * a declared body length beyond [`MAX_FRAME_BODY`] is rejected *before*
//!   any buffering ([`ProtoError::FrameTooLarge`]) — a hostile or corrupt
//!   4-byte prefix cannot make the server reserve gigabytes;
//! * any bit flip in length, body or checksum surfaces as a typed error
//!   ([`ProtoError::ChecksumMismatch`] or [`ProtoError::Decode`]), never as
//!   a silently different message;
//! * truncated input is `Ok(None)` ("need more bytes"), the streaming case.
//!
//! [`FrameReader`] adapts `split_frame` to a byte stream with one pooled
//! buffer per connection; [`encode_recommendations_into`] is the hand-rolled
//! hot-path encoder for the one response type that dominates traffic,
//! byte-identical to the derive encoding (pinned by a unit test here) but
//! allocation-free once the output buffer is warm.

use crate::error::ServeError;
use crate::recommender::Request;
use crate::topk::Recommendation;
use cdrib_data::{Direction, DomainId};
use cdrib_graph::GraphDelta;
use cdrib_tensor::artifact::fnv1a;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Protocol version sent in [`ClientMsg::Hello`] and echoed by
/// [`ServerMsg::HelloOk`]; a mismatch is answered with a typed
/// [`ErrorCode::UnsupportedVersion`]. Version 2 extended the embedded
/// [`GraphDelta`] payload of [`ClientMsg::IngestDelta`] with retraction ops
/// (removed edges, erased users, delisted items), changing its encoding —
/// a v1 client's frames would decode wrongly, so the handshake rejects it.
pub const PROTO_VERSION: u32 = 2;

/// Hard cap on a frame body. Large enough for a full-catalogue top-K
/// response or a bulk [`GraphDelta`], small enough that a corrupt length
/// prefix cannot drive unbounded buffering.
pub const MAX_FRAME_BODY: usize = 8 * 1024 * 1024;

/// Bytes of the little-endian `u32` body-length prefix.
const LEN_BYTES: usize = 4;
/// Bytes of the little-endian `u64` FNV-1a trailer.
const SUM_BYTES: usize = 8;

/// Decoding failures of the wire protocol. Every variant is terminal for
/// its connection: framing state cannot be trusted after any of them.
#[derive(Debug)]
pub enum ProtoError {
    /// A frame declared a body longer than [`MAX_FRAME_BODY`].
    FrameTooLarge {
        /// The declared body length.
        len: u64,
        /// The configured cap.
        max: usize,
    },
    /// The frame checksum did not match its length+body bytes.
    ChecksumMismatch {
        /// Checksum carried by the frame trailer.
        expected: u64,
        /// Checksum recomputed over the received bytes.
        actual: u64,
    },
    /// The frame body did not decode as a protocol message.
    Decode(serde::Error),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::FrameTooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max} byte cap")
            }
            ProtoError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: trailer says {expected:#018x}, bytes hash to {actual:#018x}"
                )
            }
            ProtoError::Decode(e) => write!(f, "frame body failed to decode: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<serde::Error> for ProtoError {
    fn from(e: serde::Error) -> Self {
        ProtoError::Decode(e)
    }
}

/// The client's opening handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HelloReq {
    /// The client's [`PROTO_VERSION`].
    pub version: u32,
}

/// One top-K request on the wire. `req_id` is chosen by the client and
/// echoed verbatim in the response, so responses can be matched under
/// pipelining and coalescing (response order across a connection's ticks is
/// FIFO, but inline replies — stats, sheds — may interleave).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecommendReq {
    /// Client-chosen correlation id, echoed in the response.
    pub req_id: u64,
    /// Transfer direction (source user table, target catalogue).
    pub direction: Direction,
    /// User index in the source-domain table.
    pub user: u32,
    /// Number of items requested.
    pub k: u32,
}

impl RecommendReq {
    /// The engine-side request this wire message describes.
    pub fn request(&self) -> Request {
        Request {
            direction: self.direction,
            user: self.user,
            k: self.k as usize,
        }
    }
}

/// An online interaction batch pushed over the wire, applied between
/// coalescer batches (validated, then patched in place).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestReq {
    /// Client-chosen correlation id, echoed in the response.
    pub req_id: u64,
    /// Domain the interactions belong to.
    pub domain: DomainId,
    /// The interaction batch.
    pub delta: GraphDelta,
}

/// Every message a client can send.
///
/// Variants are tuple-shaped on purpose: the serde stand-in's derive
/// supports unit and tuple enum variants only, and the `u32` tag is the
/// variant's declaration index — reordering variants is a wire break.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClientMsg {
    /// Version handshake; answered inline with [`ServerMsg::HelloOk`].
    Hello(HelloReq),
    /// A top-K request; queued for the next coalesced batch.
    Recommend(RecommendReq),
    /// An online interaction batch; queued and applied between batches.
    IngestDelta(IngestReq),
    /// Server counters; answered inline with [`ServerMsg::Stats`]. The
    /// payload is the correlation id.
    Stats(u64),
    /// Ask the whole server to drain and exit (used by CI and tests).
    Shutdown,
}

/// Handshake response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HelloOk {
    /// The server's [`PROTO_VERSION`].
    pub version: u32,
    /// The engine epoch at handshake time.
    pub epoch: u64,
}

/// A served top-K list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendOk {
    /// The request's correlation id.
    pub req_id: u64,
    /// Epoch of the tables this response was scored against.
    pub epoch: u64,
    /// The recommendations, best first — bitwise equal to a direct
    /// [`crate::Recommender::recommend`] call on the same engine state
    /// (the load generator's parity gate).
    pub recs: Vec<Recommendation>,
}

/// Acknowledgement of an applied [`IngestReq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaOk {
    /// The request's correlation id.
    pub req_id: u64,
    /// Epoch published by this delta.
    pub epoch: u64,
    /// New users appended by the delta.
    pub users_added: u64,
    /// New items appended by the delta.
    pub items_added: u64,
    /// Edges inserted by the delta.
    pub edges_added: u64,
    /// WAL sequence number when the engine is durable, 0 otherwise.
    pub wal_seq: u64,
}

/// Server counters, answered inline (not through the batch path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsOk {
    /// The request's correlation id.
    pub req_id: u64,
    /// Current engine epoch.
    pub epoch: u64,
    /// Requests admitted into a queue.
    pub accepted: u64,
    /// Requests answered with recommendations.
    pub served: u64,
    /// Requests shed with [`ServerMsg::Overloaded`].
    pub shed: u64,
    /// Deltas applied over the wire.
    pub deltas_applied: u64,
    /// Coalesced batches executed.
    pub batches: u64,
    /// Currently open connections.
    pub connections: u64,
}

/// Machine-matchable failure classes carried by [`ServerMsg::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The requested user id is beyond the live source table.
    UserOutOfRange,
    /// The target domain has no items.
    EmptyCatalogue,
    /// The delta was rejected (bounds, missing updater, WAL failure...).
    DeltaRejected,
    /// Client and server disagree on [`PROTO_VERSION`].
    UnsupportedVersion,
    /// The request was structurally valid but unserviceable.
    BadRequest,
}

/// A typed failure response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorMsg {
    /// Correlation id of the failed request (0 for connection-level errors).
    pub req_id: u64,
    /// Machine-matchable class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub detail: String,
}

/// Every message the server can send. Same tuple-variant / tag-stability
/// rules as [`ClientMsg`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServerMsg {
    /// Handshake response.
    HelloOk(HelloOk),
    /// A served top-K list.
    Recommendations(RecommendOk),
    /// A delta was applied and its epoch published.
    DeltaApplied(DeltaOk),
    /// Counter snapshot.
    Stats(StatsOk),
    /// Admission control shed this request: its queue was full. The payload
    /// is the correlation id. The request was **not** executed; retrying is
    /// the client's choice.
    Overloaded(u64),
    /// A typed failure.
    Error(ErrorMsg),
    /// The server acknowledged [`ClientMsg::Shutdown`] and is draining.
    ShuttingDown,
}

/// Maps an engine error from the *recommend* path onto its wire code.
pub(crate) fn recommend_error(req_id: u64, e: &ServeError) -> ErrorMsg {
    let code = match e {
        ServeError::UserOutOfRange { .. } => ErrorCode::UserOutOfRange,
        ServeError::EmptyCatalogue => ErrorCode::EmptyCatalogue,
        _ => ErrorCode::BadRequest,
    };
    ErrorMsg {
        req_id,
        code,
        detail: e.to_string(),
    }
}

/// Maps an engine error from the *delta* path onto its wire code.
pub(crate) fn delta_error(req_id: u64, e: &ServeError) -> ErrorMsg {
    ErrorMsg {
        req_id,
        code: ErrorCode::DeltaRejected,
        detail: e.to_string(),
    }
}

/// Appends one complete frame encoding `msg` to `out`. Warm calls reuse
/// `out`'s capacity; messages without heap fields encode allocation-free.
pub fn write_frame<T: Serialize>(out: &mut Vec<u8>, msg: &T) {
    let start = out.len();
    out.extend_from_slice(&[0u8; LEN_BYTES]);
    msg.serialize(out);
    finish_frame(out, start);
}

/// Patches the length prefix at `start` and appends the checksum trailer,
/// after the body was serialized in place.
fn finish_frame(out: &mut Vec<u8>, start: usize) {
    let body_len = out.len() - start - LEN_BYTES;
    assert!(
        body_len <= MAX_FRAME_BODY,
        "encoded a {body_len}-byte frame body past the {MAX_FRAME_BODY} cap"
    );
    let len_bytes = (body_len as u32).to_le_bytes();
    out[start..start + LEN_BYTES].copy_from_slice(&len_bytes);
    let sum = fnv1a(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// Hand-rolled encoder for the hot response: a full
/// `ServerMsg::Recommendations` frame straight from the engine's response
/// slice, without constructing the owned [`RecommendOk`]. Byte-identical to
/// `write_frame(&ServerMsg::Recommendations(..))` — pinned by a unit test
/// below — and allocation-free once `out` has capacity, which is what keeps
/// the warm server pipeline at 0 allocs (`tests/alloc_regression.rs`).
pub fn encode_recommendations_into(out: &mut Vec<u8>, req_id: u64, epoch: u64, recs: &[Recommendation]) {
    let start = out.len();
    out.extend_from_slice(&[0u8; LEN_BYTES]);
    // ServerMsg::Recommendations is declaration index 1.
    serde::write_variant_tag(out, 1);
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(recs.len() as u64).to_le_bytes());
    for r in recs {
        out.extend_from_slice(&r.item.to_le_bytes());
        out.extend_from_slice(&r.score.to_le_bytes());
    }
    finish_frame(out, start);
}

/// Tries to split one frame off the front of `buf`.
///
/// Returns `Ok(None)` when `buf` holds only a prefix of a frame (read more
/// bytes), or `Ok(Some((consumed, body)))` with the total frame size and
/// the validated body slice. Errors are terminal for the stream.
pub fn split_frame(buf: &[u8]) -> Result<Option<(usize, &[u8])>, ProtoError> {
    if buf.len() < LEN_BYTES {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..LEN_BYTES].try_into().expect("4 length bytes")) as usize;
    // Reject before buffering: the length is attacker/corruption-controlled.
    if len > MAX_FRAME_BODY {
        return Err(ProtoError::FrameTooLarge {
            len: len as u64,
            max: MAX_FRAME_BODY,
        });
    }
    let total = LEN_BYTES + len + SUM_BYTES;
    if buf.len() < total {
        return Ok(None);
    }
    let framed = &buf[..LEN_BYTES + len];
    let expected = u64::from_le_bytes(buf[LEN_BYTES + len..total].try_into().expect("8 checksum bytes"));
    let actual = fnv1a(framed);
    if expected != actual {
        return Err(ProtoError::ChecksumMismatch { expected, actual });
    }
    Ok(Some((total, &buf[LEN_BYTES..LEN_BYTES + len])))
}

/// Decodes a validated frame body as a client message.
pub fn decode_client(body: &[u8]) -> Result<ClientMsg, ProtoError> {
    Ok(serde::from_bytes(body)?)
}

/// Decodes a validated frame body as a server message.
pub fn decode_server(body: &[u8]) -> Result<ServerMsg, ProtoError> {
    Ok(serde::from_bytes(body)?)
}

/// Incremental frame extraction over a byte stream, one pooled buffer per
/// connection: [`FrameReader::push_bytes`] appends whatever the socket
/// produced, [`FrameReader::next_frame`] yields validated bodies as they
/// complete. Consumed bytes are reclaimed by shifting the tail down on the
/// next push, so a warm connection never grows the buffer past its largest
/// in-flight frame (and never reallocates — the 0-alloc steady state).
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    consumed: usize,
}

impl FrameReader {
    /// Creates an empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends bytes read from the stream.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        if self.consumed > 0 {
            // Reclaim the consumed prefix in place before growing.
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Yields the next complete frame body, `Ok(None)` when more bytes are
    /// needed. Errors are terminal: the stream position can no longer be
    /// trusted.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, ProtoError> {
        match split_frame(&self.buf[self.consumed..])? {
            None => Ok(None),
            Some((total, _)) => {
                let body_start = self.consumed + LEN_BYTES;
                let body_len = total - LEN_BYTES - SUM_BYTES;
                self.consumed += total;
                Ok(Some(&self.buf[body_start..body_start + body_len]))
            }
        }
    }

    /// Bytes buffered but not yet consumed (undecoded partial frames).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_recommendations_encoder_matches_derive_encoding_bitwise() {
        let recs = vec![
            Recommendation { item: 3, score: 0.75 },
            Recommendation {
                item: u32::MAX,
                score: -1.5e-9,
            },
            Recommendation { item: 0, score: 0.0 },
        ];
        let msg = ServerMsg::Recommendations(RecommendOk {
            req_id: 0xDEAD_BEEF_F00D,
            epoch: 7,
            recs: recs.clone(),
        });
        let mut derived = Vec::new();
        write_frame(&mut derived, &msg);
        let mut fast = Vec::new();
        encode_recommendations_into(&mut fast, 0xDEAD_BEEF_F00D, 7, &recs);
        assert_eq!(derived, fast, "hand-rolled encoder drifted from the derive encoding");
        // And the frame decodes back to the original message.
        let (consumed, body) = split_frame(&fast).unwrap().unwrap();
        assert_eq!(consumed, fast.len());
        assert_eq!(decode_server(body).unwrap(), msg);
    }

    #[test]
    fn empty_list_and_empty_frame_round_trip() {
        let mut fast = Vec::new();
        encode_recommendations_into(&mut fast, 1, 0, &[]);
        let (_, body) = split_frame(&fast).unwrap().unwrap();
        match decode_server(body).unwrap() {
            ServerMsg::Recommendations(ok) => assert!(ok.recs.is_empty()),
            other => panic!("unexpected message {other:?}"),
        }
        // A unit-variant message is a 4-byte body and still frames cleanly.
        let mut buf = Vec::new();
        write_frame(&mut buf, &ClientMsg::Shutdown);
        let (consumed, body) = split_frame(&buf).unwrap().unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(decode_client(body).unwrap(), ClientMsg::Shutdown);
    }

    #[test]
    fn frame_reader_reassembles_byte_dribbles() {
        let mut stream = Vec::new();
        let messages = [
            ClientMsg::Hello(HelloReq { version: PROTO_VERSION }),
            ClientMsg::Recommend(RecommendReq {
                req_id: 9,
                direction: Direction::X_TO_Y,
                user: 4,
                k: 10,
            }),
            ClientMsg::Stats(11),
        ];
        for m in &messages {
            write_frame(&mut stream, m);
        }
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        for byte in stream {
            reader.push_bytes(&[byte]);
            while let Some(body) = reader.next_frame().unwrap() {
                decoded.push(decode_client(body).unwrap());
            }
        }
        assert_eq!(decoded.as_slice(), &messages);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut buf = ((MAX_FRAME_BODY as u32) + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        assert!(matches!(
            split_frame(&buf),
            Err(ProtoError::FrameTooLarge {
                max: MAX_FRAME_BODY,
                ..
            })
        ));
    }

    #[test]
    fn corrupt_bytes_fail_with_typed_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &ClientMsg::Stats(17));
        // Flip one body bit: checksum catches it.
        let mut bent = buf.clone();
        bent[LEN_BYTES] ^= 0x40;
        assert!(matches!(split_frame(&bent), Err(ProtoError::ChecksumMismatch { .. })));
        // Truncations at every boundary are "need more bytes", not errors.
        for cut in 0..buf.len() {
            assert!(matches!(split_frame(&buf[..cut]), Ok(None)), "cut at {cut}");
        }
    }
}
