//! Shared conventions for overlay agents.
//!
//! Every protocol message starts with `[proto_id u16][msg_type u16]`,
//! the demultiplexing header the MACEDON code generator emits. Payloads
//! tunneled on behalf of the application are wrapped with
//! [`APP_PROTOCOL`] so that layered protocols (Scribe above a DHT) can
//! tell their own control messages from opaque app data.

use macedon_core::{Bytes, ProtocolId, WireReader, WireWriter};

/// Pseudo protocol id tagging opaque application payloads tunneled
/// through an overlay layer.
pub const APP_PROTOCOL: ProtocolId = 0xFFFE;

/// Well-known protocol ids (the paper: "well-known protocol value akin to
/// protocol values in IP").
pub mod proto {
    use macedon_core::ProtocolId;
    pub const PASTRY: ProtocolId = 4;
    pub const SCRIBE: ProtocolId = 5;
    pub const SPLITSTREAM: ProtocolId = 6;
    pub const NICE: ProtocolId = 7;
    pub const BULLET: ProtocolId = 8;
}

/// Read the leading protocol id without consuming the buffer.
pub fn peek_proto(bytes: &Bytes) -> Option<ProtocolId> {
    if bytes.len() < 2 {
        return None;
    }
    Some(u16::from_be_bytes([bytes[0], bytes[1]]))
}

/// Wrap opaque app data for tunneling through a layered protocol.
pub fn wrap_app(payload: &Bytes) -> Bytes {
    let mut w = WireWriter::new();
    w.u16(APP_PROTOCOL).u16(0);
    w.bytes(payload);
    w.finish()
}

/// Undo [`wrap_app`]; `None` if the buffer isn't an app wrapper.
pub fn unwrap_app(bytes: &Bytes) -> Option<Bytes> {
    let mut r = WireReader::new(bytes.clone());
    if r.u16().ok()? != APP_PROTOCOL {
        return None;
    }
    let _ty = r.u16().ok()?;
    r.bytes().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peek_proto_reads_header() {
        let mut w = WireWriter::new();
        w.u16(proto::PASTRY).u16(3);
        let b = w.finish();
        assert_eq!(peek_proto(&b), Some(proto::PASTRY));
        assert_eq!(peek_proto(&Bytes::from_static(b"\x01")), None);
    }

    #[test]
    fn app_wrapping_roundtrips() {
        let data = Bytes::from_static(b"user data");
        let wrapped = wrap_app(&data);
        assert_eq!(peek_proto(&wrapped), Some(APP_PROTOCOL));
        assert_eq!(&unwrap_app(&wrapped).unwrap()[..], b"user data");
    }

    #[test]
    fn unwrap_rejects_foreign_payloads() {
        let mut w = WireWriter::new();
        w.u16(proto::SCRIBE).u16(1);
        assert!(unwrap_app(&w.finish()).is_none());
    }

    #[test]
    fn proto_ids_unique() {
        let ids = [
            proto::PASTRY,
            proto::SCRIBE,
            proto::SPLITSTREAM,
            proto::NICE,
            proto::BULLET,
        ];
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
    }
}
