//! The framed wire protocol of the socket frontend.
//!
//! Every message is one frame: a 1-byte opcode, a 4-byte little-endian
//! payload length, then the payload. The client speaks first:
//!
//! | opcode | dir | payload |
//! |---|---|---|
//! | `HELLO` (0x01) | →  | `u32` client id |
//! | `REQ` (0x02)   | →  | `u32` byte count |
//! | `CLOSE` (0x03) | →  | empty |
//! | `HELLO_OK` (0x81) | ← | empty |
//! | `OK` (0x82)    | ←  | the granted bytes |
//! | `BUSY` (0x83)  | ←  | `u32` in-flight count at rejection |
//! | `ERR` (0x84)   | ←  | UTF-8 message |
//! | 0x85, 0x86 | — | retired; never sent |
//!
//! Frames are capped at [`MAX_FRAME`] bytes; an oversized length field
//! is a protocol error, not an allocation. The codec is transport
//! agnostic: the blocking [`read_frame`]/[`write_frame`] pair works on
//! anything `Read`/`Write`, and the incremental [`FrameDecoder`] +
//! [`encode_frame`] pair carries the same grammar over nonblocking
//! sockets, where a frame arrives (or departs) in arbitrary fragments.
//! See `docs/serving.md` for the session grammar.

use std::io::{self, Read, Write};

/// Client hello carrying its id.
pub const OP_HELLO: u8 = 0x01;
/// Request for N bytes.
pub const OP_REQ: u8 = 0x02;
/// Client is done; the server closes the session.
pub const OP_CLOSE: u8 = 0x03;
/// Registration accepted.
pub const OP_HELLO_OK: u8 = 0x81;
/// Grant: the payload is the requested bytes.
pub const OP_OK: u8 = 0x82;
/// Typed backpressure rejection.
pub const OP_BUSY: u8 = 0x83;
/// Terminal error; the server closes the session after sending it.
pub const OP_ERR: u8 = 0x84;
/// Retired: the per-client rate-limit refusal. The server never sends
/// it; the code stays reserved so no later opcode reuses it.
pub const OP_RATE_LIMITED: u8 = 0x85;
/// Retired: the service-wide shedding refusal. The server never sends
/// it; the code stays reserved so no later opcode reuses it.
pub const OP_SHEDDING: u8 = 0x86;

/// Maximum payload size accepted or sent (1 MiB).
pub const MAX_FRAME: usize = 1 << 20;

/// Writes one frame and flushes.
///
/// # Errors
///
/// `InvalidInput` for an oversized payload, otherwise any transport
/// write error.
pub fn write_frame<W: Write>(w: &mut W, op: u8, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds {MAX_FRAME}", payload.len()),
        ));
    }
    w.write_all(&[op])?;
    w.write_all(&u32::try_from(payload.len()).expect("bounded by MAX_FRAME").to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame.
///
/// Blocking reads honor whatever read timeout the caller armed on the
/// transport (the socket server sets one on every connection, so a
/// stalled peer surfaces as `WouldBlock`/`TimedOut` here rather than a
/// hang).
///
/// # Errors
///
/// `InvalidData` for an oversized length field, `UnexpectedEof` for a
/// truncated frame, otherwise any transport read error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<(u8, Vec<u8>)> {
    let mut head = [0u8; 5];
    // Bounded by the caller-armed read timeout on the transport.
    r.read_exact(&mut head)?;
    let op = head[0];
    let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len];
    // Bounded by the caller-armed read timeout on the transport.
    r.read_exact(&mut payload)?;
    Ok((op, payload))
}

/// Appends one encoded frame to `buf` without flushing — the write
/// half of the nonblocking path, where the event loop drains the buffer
/// as the socket reports writable.
///
/// # Errors
///
/// `InvalidInput` for an oversized payload (nothing is appended).
pub fn encode_frame(buf: &mut Vec<u8>, op: u8, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload {} exceeds {MAX_FRAME}", payload.len()),
        ));
    }
    buf.reserve(5 + payload.len());
    buf.push(op);
    buf.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("bounded by MAX_FRAME")
            .to_le_bytes(),
    );
    buf.extend_from_slice(payload);
    Ok(())
}

/// Incremental frame decoder for nonblocking transports.
///
/// Feed it whatever fragments the socket yields — a byte at a time, a
/// frame and a half, three coalesced frames — and pull complete frames
/// out with [`FrameDecoder::next_frame`]. An oversized length field is
/// rejected as soon as the 5-byte header is visible, before any payload
/// accumulates, so a hostile peer cannot make the decoder buffer more
/// than `MAX_FRAME + 5` bytes.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted once it outgrows the tail.
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    #[must_use]
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Bytes buffered but not yet returned as frames.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Appends raw transport bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact before growing: once the consumed prefix dominates,
        // shift the tail down so the buffer stays ~one frame large.
        if self.pos > 0 && self.pos >= self.buf.len().saturating_sub(self.pos) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame, or `None` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a length field exceeding [`MAX_FRAME`]; the
    /// decoder is poisoned afterwards (the stream has no recoverable
    /// framing) and the connection should be dropped.
    pub fn next_frame(&mut self) -> io::Result<Option<(u8, Vec<u8>)>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 5 {
            return Ok(None);
        }
        let op = avail[0];
        let len = u32::from_le_bytes([avail[1], avail[2], avail[3], avail[4]]) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds {MAX_FRAME}"),
            ));
        }
        if avail.len() < 5 + len {
            return Ok(None);
        }
        let payload = avail[5..5 + len].to_vec();
        self.pos += 5 + len;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(Some((op, payload)))
    }
}

/// Parses the 4-byte little-endian integer payload of `HELLO`/`REQ`/
/// `BUSY` frames.
///
/// # Errors
///
/// `InvalidData` if the payload is not exactly four bytes.
pub fn parse_u32(payload: &[u8]) -> io::Result<u32> {
    let bytes: [u8; 4] = payload.try_into().map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("expected a 4-byte integer payload, got {} bytes", payload.len()),
        )
    })?;
    Ok(u32::from_le_bytes(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_HELLO, &7u32.to_le_bytes()).expect("writes");
        write_frame(&mut buf, OP_OK, &[0xAB, 0xCD]).expect("writes");
        write_frame(&mut buf, OP_CLOSE, &[]).expect("writes");
        let mut cursor = Cursor::new(buf);
        let (op, payload) = read_frame(&mut cursor).expect("reads");
        assert_eq!(op, OP_HELLO);
        assert_eq!(parse_u32(&payload).expect("4 bytes"), 7);
        let (op, payload) = read_frame(&mut cursor).expect("reads");
        assert_eq!((op, payload.as_slice()), (OP_OK, &[0xAB, 0xCD][..]));
        let (op, payload) = read_frame(&mut cursor).expect("reads");
        assert_eq!((op, payload.len()), (OP_CLOSE, 0));
        assert!(read_frame(&mut cursor).is_err(), "stream exhausted");
    }

    #[test]
    fn oversized_length_field_is_rejected_without_allocating() {
        let mut buf = vec![OP_OK];
        buf.extend((MAX_FRAME as u32 + 1).to_le_bytes());
        let err = read_frame(&mut Cursor::new(buf)).expect_err("too large");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_OK, &[1, 2, 3, 4]).expect("writes");
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut Cursor::new(buf)).expect_err("truncated");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_payload_is_rejected_on_write() {
        let mut buf = Vec::new();
        let huge = vec![0u8; MAX_FRAME + 1];
        let err = write_frame(&mut buf, OP_OK, &huge).expect_err("too large");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "nothing written");
    }

    #[test]
    fn bad_integer_payloads_are_rejected() {
        assert!(parse_u32(&[1, 2, 3]).is_err());
        assert!(parse_u32(&[1, 2, 3, 4, 5]).is_err());
        assert_eq!(parse_u32(&42u32.to_le_bytes()).expect("4 bytes"), 42);
    }

    #[test]
    fn decoder_reassembles_byte_at_a_time_input() {
        let mut stream = Vec::new();
        write_frame(&mut stream, OP_REQ, &64u32.to_le_bytes()).expect("writes");
        write_frame(&mut stream, OP_OK, &[9, 8, 7]).expect("writes");
        let mut decoder = FrameDecoder::new();
        let mut frames = Vec::new();
        for byte in stream {
            decoder.feed(&[byte]);
            while let Some(frame) = decoder.next_frame().expect("well-formed") {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].0, OP_REQ);
        assert_eq!(parse_u32(&frames[0].1).expect("4 bytes"), 64);
        assert_eq!(frames[1], (OP_OK, vec![9, 8, 7]));
        assert_eq!(decoder.pending(), 0);
    }

    #[test]
    fn decoder_handles_coalesced_frames_in_one_feed() {
        let mut stream = Vec::new();
        write_frame(&mut stream, OP_HELLO, &1u32.to_le_bytes()).expect("writes");
        write_frame(&mut stream, OP_REQ, &1u32.to_le_bytes()).expect("writes");
        write_frame(&mut stream, OP_CLOSE, &[]).expect("writes");
        let mut decoder = FrameDecoder::new();
        decoder.feed(&stream);
        let ops: Vec<u8> = std::iter::from_fn(|| decoder.next_frame().expect("well-formed"))
            .map(|(op, _)| op)
            .collect();
        assert_eq!(ops, vec![OP_HELLO, OP_REQ, OP_CLOSE]);
    }

    #[test]
    fn decoder_rejects_oversized_length_from_the_header_alone() {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&[OP_OK]);
        decoder.feed(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let err = decoder.next_frame().expect_err("oversized");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn encode_frame_matches_write_frame_bytes() {
        let mut blocking = Vec::new();
        write_frame(&mut blocking, OP_BUSY, &3u32.to_le_bytes()).expect("writes");
        let mut buffered = Vec::new();
        encode_frame(&mut buffered, OP_BUSY, &3u32.to_le_bytes()).expect("encodes");
        assert_eq!(blocking, buffered);
        let huge = vec![0u8; MAX_FRAME + 1];
        assert!(encode_frame(&mut buffered, OP_OK, &huge).is_err());
        assert_eq!(blocking, buffered, "failed encode appends nothing");
    }
}
