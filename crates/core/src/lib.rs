//! # macedon-core
//!
//! The MACEDON engine: everything the paper's generated C++ agents link
//! against, reimplemented as a deterministic Rust runtime.
//!
//! * [`key`] / [`sha1`] — the 32-bit hash address space and the SHA
//!   hashing library.
//! * [`wire`] — message (de)serialization, the "state serialization"
//!   engine service.
//! * [`api`] — the overlay-generic MACEDON API of Figure 3: downcalls
//!   (`route`, `routeIP`, `multicast`, `anycast`, `collect`, group
//!   management) and upcalls (`forward`, `deliver`, `notify`).
//! * [`agent`] — the [`agent::Agent`] trait generated code implements,
//!   the [`agent::AppHandler`] application interface, and the transition
//!   [`agent::Ctx`].
//! * [`spec`] — the engine-facing half of every spec agent: one
//!   [`Agent`] implementation over [`spec::SpecBody`], which the spec
//!   interpreter and each generated agent implement with a spec's facts
//!   and transitions.
//! * [`stack`] — per-node protocol layering (Figure 2/5) with the effect
//!   dispatcher.
//! * [`scratch`] — this thread's pools of per-dispatch working buffers.
//! * [`trace`] — the four-level tracing subsystem and locking-class
//!   accounting.
//! * [`app`] — reusable workload applications (streamers, collectors).
//! * [`world`] — the combined event loop: timer subsystem, failure
//!   detector (heartbeats, `g`/`f` thresholds), node lifecycle, metric
//!   oracles.

pub mod agent;
pub mod api;
pub mod app;
pub mod export;
pub mod json;
pub mod key;
pub mod measure;
pub mod scratch;
pub mod sha1;
pub mod spec;
pub mod stack;
pub mod telemetry;
pub mod trace;
pub mod wire;
pub mod world;

pub use agent::{Agent, AgentState, AppHandler, Ctx, Locking, NullApp};
pub use api::{DownCall, ForwardInfo, ProtocolId, UpCall, DEFAULT_PRIORITY, TUNNEL_PROTOCOL};
pub use export::perfetto_json;
pub use key::{Addressing, MacedonKey, Ring};
pub use measure::{MeasureLedger, MeasureSummary};
pub use stack::{Stack, StackEffect};
pub use telemetry::{Telemetry, TelemetryReport, TelemetrySample, TELEMETRY_COLUMNS};
pub use trace::{SpanForest, SpanId, TraceEvent, TraceLevel, TraceRecord, TraceSink};
pub use wire::{DecodeError, WireReader, WireRef, WireWriter};
pub use world::{
    proto_header, EventClassCounts, HeapCensus, ShardProfile, World, WorldConfig, WorldEvent,
};

// Re-export the identifiers agents constantly need.
pub use bytes::Bytes;
pub use macedon_net::NodeId;
pub use macedon_sim::{Duration, SimRng, Time};
pub use macedon_transport::{ChannelId, ChannelSpec, TransportKind};
