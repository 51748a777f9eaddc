//! # macedon-transport
//!
//! The MACEDON transport subsystem (§3.1 of the paper).
//!
//! A protocol's lowest layer declares named transport instances:
//!
//! ```text
//! transports {
//!     SWP HIGHEST;
//!     TCP HIGH;
//!     TCP MED;
//!     TCP LOW;
//!     UDP BEST_EFFORT;
//! }
//! ```
//!
//! and binds each message type to one of them. Communication can be
//! *reliable, congestion-friendly* (**TCP**), *unreliable,
//! congestion-unfriendly* (**UDP**) or *reliable, congestion-unfriendly*
//! (**SWP**, a simple sliding-window protocol). Multiple blocking
//! transports of the same kind exist so that a connection blocked on
//! low-priority data cannot head-of-line-block high-priority messages —
//! each named instance is an independent connection per peer.
//!
//! This crate implements all three from scratch over the packet pipeline
//! of [`macedon_net`]:
//!
//! * message-oriented framing with MSS segmentation and reassembly,
//! * cumulative ACKs, RTT estimation (Jacobson/Karels), RTO with
//!   exponential backoff, fast retransmit on triple duplicate ACKs,
//! * TCP-style slow start + AIMD congestion avoidance for the TCP kind,
//! * a fixed send window without congestion response for the SWP kind,
//! * best-effort fragmentation for the UDP kind.

pub mod endpoint;
pub mod harness;
pub mod reliable;
pub mod rtt;
pub mod segment;
pub mod udp;

pub use endpoint::{
    scratch_bytes, ChannelId, ChannelSpec, Endpoint, TimerKey, TimerKind, TransportKind,
    TransportSink,
};
pub use reliable::pooled_bytes;
pub use segment::{SegKind, Segment};
