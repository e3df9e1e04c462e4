//! Frame transport and byte-level primitives.
//!
//! Everything on the wire is a *frame*: a little-endian `u32` length
//! prefix followed by `version`, `opcode` and an opcode-specific payload
//! (grammar in `PROTOCOL.md`). This module owns the length-prefix
//! discipline — one frame writer, [`encode_frame_into`], one frame
//! reader, [`read_frame_into`], and one length rule shared by that reader
//! and the server's nonblocking one, whose maximum-frame bound keeps a
//! hostile length prefix from allocating unbounded memory — and the
//! primitive [`Writer`]/[`Reader`] the payload codecs in
//! [`crate::protocol`] are built from. No serde: every byte is written and checked by hand, so a
//! corrupt frame surfaces as a typed [`WireError`], never a panic.

use std::fmt;
use std::io::{self, Read};

/// Protocol version carried in every frame.
///
/// History: v1 was the original frame grammar; v2 added the
/// `request_id:u64` dedup token to the `AddShard`/`RebuildShard`
/// payloads — a breaking body change, so the version was bumped rather
/// than letting a v1 peer's first 8 payload bytes be silently consumed
/// as a request id. Peers speaking another version get a typed
/// `UnsupportedVersion` error and the connection closes.
pub const PROTOCOL_VERSION: u8 = 2;

/// Default upper bound on a frame body (version + opcode + payload).
/// Ingest frames carry whole shards, so the default is generous; servers
/// and clients can lower it.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 32 * 1024 * 1024;

/// Frame header bytes preceding the payload (version + opcode).
pub const FRAME_HEADER_LEN: u32 = 2;

/// Whether an I/O error kind means "the peer went away" (clean or
/// abrupt), as opposed to a genuinely local fault. The client folds
/// these into [`ClientError::ConnectionClosed`](crate::ClientError) and
/// the server's write path uses the same test to tell a dead reader from
/// a stalled one.
pub fn is_disconnect_kind(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// A typed wire-format violation. Decoding never panics: malformed,
/// truncated and oversized input all land here.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a field was complete.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// The payload holds bytes past the end of the decoded value.
    TrailingBytes {
        /// Leftover byte count.
        extra: usize,
    },
    /// An enum discriminant outside the protocol grammar.
    BadTag {
        /// Which grammar production was being decoded.
        context: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string field holds invalid UTF-8.
    BadUtf8,
    /// A field value violates a semantic constraint (NaN interval, empty
    /// dataset, inverted rectangle, …). The message names the constraint.
    BadValue {
        /// Which constraint was violated.
        context: &'static str,
    },
    /// The length prefix exceeds the configured frame bound.
    FrameTooLarge {
        /// Declared body length.
        len: u32,
        /// Configured bound.
        max: u32,
    },
    /// The length prefix is too small to hold version + opcode.
    FrameTooShort {
        /// Declared body length.
        len: u32,
    },
    /// The frame's version byte is not [`PROTOCOL_VERSION`].
    UnsupportedVersion {
        /// The version received.
        got: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, have } => {
                write!(
                    f,
                    "truncated payload: field needs {needed} bytes, {have} left"
                )
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the decoded value")
            }
            WireError::BadTag { context, tag } => {
                write!(f, "invalid tag {tag:#04x} decoding {context}")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadValue { context } => write!(f, "invalid value: {context}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte bound")
            }
            WireError::FrameTooShort { len } => {
                write!(f, "frame body of {len} bytes cannot hold version + opcode")
            }
            WireError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (this build speaks {PROTOCOL_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Why a frame read ended.
#[derive(Debug)]
pub enum FrameReadError {
    /// Clean end of stream before any header byte (peer closed politely).
    Eof,
    /// Transport failure, including a disconnect mid-frame.
    Io(io::Error),
    /// Header-level protocol violation ([`WireError::FrameTooLarge`] /
    /// [`WireError::FrameTooShort`]): the stream position can no longer be
    /// trusted, so the connection should close after reporting it.
    Wire(WireError),
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Eof => write!(f, "peer closed the connection"),
            FrameReadError::Io(e) => write!(f, "transport error: {e}"),
            FrameReadError::Wire(e) => write!(f, "frame violation: {e}"),
        }
    }
}

impl std::error::Error for FrameReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameReadError::Io(e) => Some(e),
            FrameReadError::Wire(e) => Some(e),
            FrameReadError::Eof => None,
        }
    }
}

/// The length-prefix rule of every frame reader: the declared body must
/// hold version + opcode and fit under `max_len`. A violation is a
/// header-level [`FrameReadError::Wire`]: the stream position can no
/// longer be trusted.
pub(crate) fn check_frame_len(len: u32, max_len: u32) -> Result<(), WireError> {
    if len < FRAME_HEADER_LEN {
        Err(WireError::FrameTooShort { len })
    } else if len > max_len {
        Err(WireError::FrameTooLarge { len, max: max_len })
    } else {
        Ok(())
    }
}

/// Reads one frame into a caller-provided payload buffer (cleared, then
/// filled with the payload — header bytes excluded), returning
/// `(version, opcode)` and allocating at most `max_len` bytes for the
/// body. The buffer keeps its capacity across calls, so a read loop over
/// same-sized frames stops allocating once warm — the transport half of
/// the session layer's zero-allocation steady state.
pub fn read_frame_into(
    r: &mut impl Read,
    max_len: u32,
    body: &mut Vec<u8>,
) -> Result<(u8, u8), FrameReadError> {
    let mut prefix = [0u8; 4];
    // Distinguish a clean close (no bytes at all) from a mid-prefix cut.
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut prefix[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    FrameReadError::Eof
                } else {
                    FrameReadError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "disconnect inside a frame length prefix",
                    ))
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix);
    check_frame_len(len, max_len).map_err(FrameReadError::Wire)?;
    let mut header = [0u8; FRAME_HEADER_LEN as usize];
    r.read_exact(&mut header).map_err(FrameReadError::Io)?;
    body.clear();
    body.resize(len as usize - FRAME_HEADER_LEN as usize, 0);
    r.read_exact(body).map_err(FrameReadError::Io)?;
    Ok((header[0], header[1]))
}

/// Payload writer: append-only primitives over a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty payload.
    pub fn new() -> Self {
        Writer::default()
    }

    /// A writer over a reused buffer: `buf` is cleared but keeps its
    /// capacity, so encoding into a pooled or scratch buffer allocates
    /// nothing once the buffer has grown to the working set.
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Writer { buf }
    }

    /// The accumulated payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact: `-0.0`
    /// and every NaN payload survive the round trip).
    pub fn put_f64(&mut self, x: f64) {
        self.put_u64(x.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a sequence count (`u32`).
    pub fn put_count(&mut self, n: usize) {
        self.put_u32(n as u32);
    }
}

/// Encodes one complete frame — length prefix, version, opcode, payload
/// — into `buf` (cleared first, capacity kept), where `encode` is an
/// `encode_to`-style closure writing the payload and returning the
/// opcode. The one frame writer, used by the nonblocking session layer
/// and the client's scratch buffers: encoding into a warm buffer
/// allocates nothing, and the caller ships `buf` with plain writes
/// whenever the socket is ready.
///
/// A body past `max_len` is refused, so an over-large *outgoing* frame
/// fails locally instead of being rejected by the peer — but only
/// *after* encoding (the length isn't known up front), so the caller
/// still holds the grown buffer and can re-encode a small typed error
/// into it.
pub fn encode_frame_into(
    buf: &mut Vec<u8>,
    version: u8,
    max_len: u32,
    encode: impl FnOnce(&mut Writer) -> u8,
) -> Result<(), WireError> {
    let mut w = Writer::from_vec(std::mem::take(buf));
    w.put_u32(0); // length prefix, patched below
    w.put_u8(version);
    w.put_u8(0); // opcode, patched below
    let op = encode(&mut w);
    *buf = w.into_bytes();
    let body_len = buf.len() - 4;
    if body_len > max_len as usize {
        return Err(WireError::FrameTooLarge {
            len: body_len.min(u32::MAX as usize) as u32,
            max: max_len,
        });
    }
    buf[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    buf[5] = op;
    Ok(())
}

/// Payload reader: a checked cursor over a byte slice. Every accessor
/// returns [`WireError::Truncated`] instead of reading past the end.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str_(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a sequence count, rejecting counts that could not possibly
    /// fit in the remaining bytes (each element needs at least
    /// `min_elem_bytes`): a hostile count can never force a huge
    /// allocation.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let floor = n.saturating_mul(min_elem_bytes.max(1));
        if floor > self.remaining() {
            return Err(WireError::Truncated {
                needed: floor,
                have: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Asserts the payload is fully consumed (decoders call this last, so
    /// a frame with junk appended is rejected, not silently accepted).
    pub fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                extra: self.buf.len(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(u32::MAX);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_f64(f64::INFINITY);
        w.put_str("naïve");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), u32::MAX);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), f64::INFINITY);
        assert_eq!(r.str_().unwrap(), "naïve");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_are_typed() {
        let mut w = Writer::new();
        w.put_u32(5);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.u64(), Err(WireError::Truncated { .. })));
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        assert!(matches!(
            r.finish(),
            Err(WireError::TrailingBytes { extra: 3 })
        ));
    }

    #[test]
    fn hostile_counts_cannot_allocate() {
        // Declares 2^31 elements with 4 bytes left: rejected before any
        // allocation.
        let mut w = Writer::new();
        w.put_u32(1 << 31);
        w.put_u32(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.count(8), Err(WireError::Truncated { .. })));
    }

    /// One frame through the library writer.
    fn frame(op: u8, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, PROTOCOL_VERSION, 1024, |w| {
            payload.iter().for_each(|&b| w.put_u8(b));
            op
        })
        .unwrap();
        buf
    }

    #[test]
    fn frames_round_trip_and_enforce_bounds() {
        let buf = frame(0x42, b"abc");
        let mut body = Vec::new();
        let header = read_frame_into(&mut buf.as_slice(), 1024, &mut body).unwrap();
        assert_eq!(
            (header, body.as_slice()),
            ((PROTOCOL_VERSION, 0x42), b"abc".as_slice())
        );
        // Oversized declared length is rejected without allocating.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        hostile.extend_from_slice(&[1, 2, 3]);
        match read_frame_into(&mut hostile.as_slice(), 1024, &mut body) {
            Err(FrameReadError::Wire(WireError::FrameTooLarge { .. })) => {}
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        // A too-short body length cannot hold the header.
        let mut short = Vec::new();
        short.extend_from_slice(&1u32.to_le_bytes());
        short.push(0);
        match read_frame_into(&mut short.as_slice(), 1024, &mut body) {
            Err(FrameReadError::Wire(WireError::FrameTooShort { len: 1 })) => {}
            other => panic!("expected FrameTooShort, got {other:?}"),
        }
        // Clean EOF before any byte vs a cut inside the prefix.
        assert!(matches!(
            read_frame_into(&mut (&[] as &[u8]), 1024, &mut body),
            Err(FrameReadError::Eof)
        ));
        assert!(matches!(
            read_frame_into(&mut (&[9u8, 0] as &[u8]), 1024, &mut body),
            Err(FrameReadError::Io(_))
        ));
    }

    #[test]
    fn encode_frame_into_writes_the_grammar_and_reuses_its_buffer() {
        let mut buf = frame(0x42, b"abc");
        assert_eq!(buf, [5, 0, 0, 0, PROTOCOL_VERSION, 0x42, b'a', b'b', b'c']);
        // Reuse: a second encode into the same buffer replaces, not
        // appends, and an oversized body is refused with the buffer still
        // usable.
        encode_frame_into(&mut buf, PROTOCOL_VERSION, 1024, |_| 0x01).unwrap();
        assert_eq!(buf.len(), 6);
        let err = encode_frame_into(&mut buf, PROTOCOL_VERSION, 16, |w| {
            for _ in 0..64 {
                w.put_u8(0);
            }
            0x01
        });
        assert!(matches!(err, Err(WireError::FrameTooLarge { .. })));
        encode_frame_into(&mut buf, PROTOCOL_VERSION, 1024, |_| 0x01).unwrap();
        assert_eq!(buf.len(), 6);
    }

    #[test]
    fn read_frame_into_reuses_the_buffer() {
        let mut wire = frame(0x07, b"hello");
        wire.extend(frame(0x08, b"x"));
        let mut body = Vec::new();
        let mut cursor = wire.as_slice();
        assert_eq!(
            read_frame_into(&mut cursor, 1024, &mut body).unwrap(),
            (PROTOCOL_VERSION, 0x07)
        );
        assert_eq!(body, b"hello");
        let cap = body.capacity();
        assert_eq!(
            read_frame_into(&mut cursor, 1024, &mut body).unwrap(),
            (PROTOCOL_VERSION, 0x08)
        );
        assert_eq!(body, b"x");
        assert_eq!(body.capacity(), cap);
        assert!(matches!(
            read_frame_into(&mut cursor, 1024, &mut body),
            Err(FrameReadError::Eof)
        ));
    }
}
