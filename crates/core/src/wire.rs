//! Message serialization — the "state serialization" library of the
//! MACEDON engine.
//!
//! Every protocol message crosses the emulated network as bytes so that
//! transports charge realistic sizes and layering tunnels payloads
//! opaquely. The codec is a simple big-endian TLV-free format: each
//! message type knows its own field order, mirroring the generated
//! marshaling code MACEDON emits for `messages { ... }` declarations.

use crate::key::MacedonKey;
use bytes::Bytes;
use macedon_net::NodeId;
use std::cell::{Cell, RefCell};
use std::fmt;

/// Frame a payload for direct host-to-host tunneling on behalf of the
/// layers above (the engine service behind `macedon_routeIP`): protocol
/// header [`crate::api::TUNNEL_PROTOCOL`], message type 0, the sender's
/// key, then the length-prefixed payload. Every spec agent emits and
/// parses this frame through [`crate::spec`], which is what lets
/// interpreted and generated agents tunnel for each other inside one
/// mixed stack.
pub fn tunnel_frame(src: MacedonKey, payload: &[u8]) -> Bytes {
    let mut w = WireWriter::new();
    w.u16(crate::api::TUNNEL_PROTOCOL).u16(0).key(src);
    w.bytes(payload);
    w.finish()
}

/// Parse the body of a [`tunnel_frame`]; the reader must be positioned
/// just past the 4-byte protocol header. Returns `(source key, payload)`.
pub fn read_tunnel(r: &mut WireRef<'_>) -> Result<(MacedonKey, Bytes), DecodeError> {
    let src = r.key()?;
    let payload = r.bytes()?;
    Ok((src, payload))
}

/// Decode failure: message truncated or malformed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodeError {
    pub needed: usize,
    pub remaining: usize,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decode error: needed {} bytes, {} remaining",
            self.needed, self.remaining
        )
    }
}

impl std::error::Error for DecodeError {}

thread_local! {
    /// The encode buffer a finished or dropped writer hands back, so the
    /// next message on this thread appends into warm capacity.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
    /// The last frame [`WireWriter::finish`] returned on this thread.
    /// Fan-out (one publish to each child, one keepalive to each leaf)
    /// encodes the same bytes back to back; an equal frame is returned
    /// as a clone of this handle instead of a new allocation.
    static LAST: RefCell<Option<Bytes>> = const { RefCell::new(None) };
}

/// Append-only message writer. Encodes into a per-thread reusable
/// buffer; [`WireWriter::finish`] allocates one exactly-sized frame, or
/// none when the bytes equal the previous frame finished on this thread.
pub struct WireWriter {
    buf: Vec<u8>,
}

impl Drop for WireWriter {
    /// Give the buffer back; when a nested writer took a fresh one, the
    /// larger of the two is kept. `try_with`, because `Drop` must not
    /// panic: during thread teardown the buffer is simply freed.
    fn drop(&mut self) {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        let _ = SCRATCH.try_with(|s| s.set(std::cmp::max_by_key(s.take(), buf, Vec::capacity)));
    }
}

impl Default for WireWriter {
    fn default() -> Self {
        WireWriter::new()
    }
}

impl WireWriter {
    pub fn new() -> WireWriter {
        WireWriter {
            buf: SCRATCH.with(Cell::take),
        }
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    pub fn i32(&mut self, v: i32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    pub fn node(&mut self, n: NodeId) -> &mut Self {
        self.u32(n.0)
    }

    pub fn key(&mut self, k: MacedonKey) -> &mut Self {
        self.u32(k.0)
    }

    /// Length-prefixed byte blob.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.buf.reserve(4 + b.len());
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
        self
    }

    /// Length-prefixed list of node ids.
    pub fn nodes(&mut self, ns: &[NodeId]) -> &mut Self {
        self.u16(ns.len() as u16);
        for n in ns {
            self.node(*n);
        }
        self
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The encoded frame. Shares the previous frame's allocation when
    /// the bytes are equal (compared by content), else copies them into
    /// one exactly-sized `Bytes`.
    pub fn finish(self) -> Bytes {
        LAST.with_borrow_mut(|last| match last {
            Some(prev) if prev[..] == self.buf[..] => prev.clone(),
            _ => last.insert(Bytes::copy_from_slice(&self.buf)).clone(),
        })
    }
}

/// Sequential message reader owning its buffer. Every accessor
/// delegates to [`WireRef`] — one decode implementation serves both
/// readers, so the wire format cannot drift between them.
pub struct WireReader {
    buf: Bytes,
    pos: usize,
}

/// Generate `WireReader` accessors that delegate to the borrowing
/// reader and carry the cursor back.
macro_rules! delegate_reads {
    ($($(#[$doc:meta])* $name:ident -> $ty:ty),* $(,)?) => {
        $($(#[$doc])*
        pub fn $name(&mut self) -> Result<$ty, DecodeError> {
            let mut r = self.reref();
            let v = r.$name();
            self.pos = r.pos;
            v
        })*
    };
}

impl WireReader {
    pub fn new(buf: Bytes) -> WireReader {
        WireReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The borrowing reader positioned at this reader's cursor.
    fn reref(&self) -> WireRef<'_> {
        WireRef {
            src: &self.buf,
            buf: &self.buf,
            pos: self.pos,
        }
    }

    delegate_reads! {
        u8 -> u8,
        u16 -> u16,
        u32 -> u32,
        u64 -> u64,
        i32 -> i32,
        node -> NodeId,
        key -> MacedonKey,
        /// Length-prefixed byte blob (zero-copy slice of the input).
        bytes -> Bytes,
        nodes -> Vec<NodeId>,
    }
}

/// Borrowing message reader: the zero-clone counterpart of
/// [`WireReader`]. Where `WireReader::new` takes ownership of a `Bytes`
/// handle (forcing callers that only hold a reference to clone it
/// first), `WireRef` reads straight out of a `&Bytes`. [`WireRef::bytes`]
/// still returns a zero-copy sub-`Bytes` sharing the underlying
/// allocation.
pub struct WireRef<'a> {
    src: &'a Bytes,
    /// The buffer contents, dereferenced once at construction — every
    /// scalar read works on this plain slice.
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireRef<'a> {
    pub fn new(buf: &'a Bytes) -> WireRef<'a> {
        WireRef {
            src: buf,
            buf,
            pos: 0,
        }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let s = self.take(2)?;
        Ok(u16::from_be_bytes([s[0], s[1]]))
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let s = self.take(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let s = self.take(8)?;
        Ok(u64::from_be_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    pub fn i32(&mut self) -> Result<i32, DecodeError> {
        let s = self.take(4)?;
        Ok(i32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub fn node(&mut self) -> Result<NodeId, DecodeError> {
        Ok(NodeId(self.u32()?))
    }

    pub fn key(&mut self) -> Result<MacedonKey, DecodeError> {
        Ok(MacedonKey(self.u32()?))
    }

    /// Length-prefixed byte blob (zero-copy slice of the shared buffer).
    pub fn bytes(&mut self) -> Result<Bytes, DecodeError> {
        let n = self.u32()? as usize;
        if self.remaining() < n {
            return Err(DecodeError {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let b = self.src.slice(self.pos..self.pos + n);
        self.pos += n;
        Ok(b)
    }

    pub fn nodes(&mut self) -> Result<Vec<NodeId>, DecodeError> {
        let n = self.u16()? as usize;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(self.node()?);
        }
        Ok(out)
    }

    /// Length-prefixed node list into a caller-provided (pooled) buffer.
    pub fn nodes_into(&mut self, out: &mut Vec<NodeId>) -> Result<(), DecodeError> {
        debug_assert!(out.is_empty());
        let n = self.u16()? as usize;
        out.reserve(n.min(1024));
        for _ in 0..n {
            out.push(self.node()?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = WireWriter::new();
        w.u8(7).u16(300).u32(70_000).u64(1 << 40).i32(-5);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i32().unwrap(), -5);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_domain_types() {
        let mut w = WireWriter::new();
        w.node(NodeId(9)).key(MacedonKey(0xDEAD_BEEF));
        w.nodes(&[NodeId(1), NodeId(2), NodeId(3)]);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.node().unwrap(), NodeId(9));
        assert_eq!(r.key().unwrap(), MacedonKey(0xDEAD_BEEF));
        assert_eq!(r.nodes().unwrap(), vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn roundtrip_bytes_blob() {
        let mut w = WireWriter::new();
        w.bytes(b"payload").u8(0xFF);
        let mut r = WireReader::new(w.finish());
        assert_eq!(&r.bytes().unwrap()[..], b"payload");
        assert_eq!(r.u8().unwrap(), 0xFF);
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = WireWriter::new();
        w.u16(1);
        let mut r = WireReader::new(w.finish());
        assert!(r.u32().is_err());
        let err = r.u64().unwrap_err();
        assert_eq!(err.needed, 8);
    }

    #[test]
    fn truncated_blob_errors() {
        let mut w = WireWriter::new();
        w.u32(100); // claims 100 bytes follow, none do
        let mut r = WireReader::new(w.finish());
        assert!(r.bytes().is_err());
    }

    #[test]
    fn empty_collections() {
        let mut w = WireWriter::new();
        w.bytes(b"").nodes(&[]);
        let mut r = WireReader::new(w.finish());
        assert!(r.bytes().unwrap().is_empty());
        assert!(r.nodes().unwrap().is_empty());
    }

    #[test]
    fn tunnel_frame_roundtrip() {
        // The frame's layout, field by field.
        let frame = tunnel_frame(MacedonKey(42), b"inner");
        let mut r = WireReader::new(frame);
        assert_eq!(r.u16().unwrap(), crate::api::TUNNEL_PROTOCOL);
        assert_eq!(r.u16().unwrap(), 0);
        assert_eq!(r.key().unwrap(), MacedonKey(42));
        assert_eq!(&r.bytes().unwrap()[..], b"inner");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn wire_ref_matches_owning_reader() {
        let mut w = WireWriter::new();
        w.u8(7).u16(300).u32(70_000).u64(1 << 40).i32(-5);
        w.node(NodeId(9)).key(MacedonKey(3));
        w.bytes(b"payload");
        w.nodes(&[NodeId(1), NodeId(2)]);
        let buf = w.finish();
        let mut r = WireRef::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.i32().unwrap(), -5);
        assert_eq!(r.node().unwrap(), NodeId(9));
        assert_eq!(r.key().unwrap(), MacedonKey(3));
        assert_eq!(&r.bytes().unwrap()[..], b"payload");
        assert_eq!(r.nodes().unwrap(), vec![NodeId(1), NodeId(2)]);
        assert_eq!(r.remaining(), 0);
        assert!(r.u8().is_err(), "exhausted reader errors");
    }

    #[test]
    fn tunnel_frame_roundtrip_borrowed() {
        let frame = tunnel_frame(MacedonKey(42), b"inner");
        let mut r = WireRef::new(&frame);
        assert_eq!(r.u16().unwrap(), crate::api::TUNNEL_PROTOCOL);
        assert_eq!(r.u16().unwrap(), 0);
        let (src, payload) = read_tunnel(&mut r).unwrap();
        assert_eq!(src, MacedonKey(42));
        assert_eq!(&payload[..], b"inner");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_ref_blob_errors() {
        let mut w = WireWriter::new();
        w.u32(100);
        let buf = w.finish();
        let mut r = WireRef::new(&buf);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn short_frame_after_long_one_is_exact_size() {
        let mut w = WireWriter::new();
        w.bytes(&[0xAB; 1_196]);
        assert_eq!(w.finish().len(), 1_200);
        let mut w = WireWriter::new();
        w.u32(1).u64(2);
        let short = w.finish();
        assert_eq!(short.len(), 12);
        let mut r = WireReader::new(short);
        assert_eq!((r.u32().unwrap(), r.u64().unwrap()), (1, 2));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn identical_consecutive_frames_share_one_buffer() {
        let a = tunnel_frame(MacedonKey(7), b"publish");
        let b = tunnel_frame(MacedonKey(7), b"publish");
        assert_eq!(a, b);
        assert_eq!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn different_frames_do_not_share() {
        let a = tunnel_frame(MacedonKey(7), b"publish");
        let b = tunnel_frame(MacedonKey(8), b"publish");
        assert_ne!(a, b);
        assert_ne!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn writer_dropped_mid_encode_leaves_next_frame_correct() {
        let mut w = WireWriter::new();
        w.u64(u64::MAX).bytes(b"abandoned");
        drop(w);
        let mut w = WireWriter::new();
        assert!(w.is_empty());
        w.u16(5);
        assert_eq!(&w.finish()[..], &[0, 5]);
    }

    #[test]
    fn nested_writers_both_encode_correctly() {
        let mut outer = WireWriter::new();
        outer.u16(crate::api::TUNNEL_PROTOCOL).u16(0);
        let mut inner = WireWriter::new();
        inner.u32(0xDEAD_BEEF);
        outer.key(MacedonKey(3));
        let inner = inner.finish();
        outer.bytes(&inner);
        let frame = outer.finish();
        assert_eq!(&inner[..], &[0xDE, 0xAD, 0xBE, 0xEF]);
        let mut r = WireRef::new(&frame);
        assert_eq!(r.u16().unwrap(), crate::api::TUNNEL_PROTOCOL);
        assert_eq!(r.u16().unwrap(), 0);
        let (src, payload) = read_tunnel(&mut r).unwrap();
        assert_eq!((src, &payload[..]), (MacedonKey(3), &inner[..]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn writer_len_tracks() {
        let mut w = WireWriter::new();
        assert!(w.is_empty());
        w.u32(1);
        assert_eq!(w.len(), 4);
    }
}
