//! # macedon
//!
//! Facade crate for the MACEDON reproduction: re-exports the full public
//! API so applications depend on one crate, and hosts the workspace's
//! runnable examples (`examples/`) and cross-crate integration tests
//! (`tests/`).
//!
//! ```
//! use macedon::prelude::*;
//!
//! // Build a small emulated network and run the bundled Chord spec on it.
//! let registry = SpecRegistry::bundled();
//! let topo = macedon::net::topology::canned::star(8, macedon::net::topology::LinkSpec::lan());
//! let cfg = WorldConfig {
//!     channels: registry.channel_table_for("chord").unwrap(),
//!     ..Default::default()
//! };
//! let mut world = World::new(topo, cfg);
//! // Every host runs the stack, joining 100 ms after the previous one
//! // through the first host.
//! let hosts = world.spawn_each(Duration::from_millis(100), |_, bootstrap| {
//!     let stack = registry.build_stack("chord", bootstrap).unwrap();
//!     (stack, Box::new(NullApp))
//! });
//! world.run_until(Time::from_secs(30));
//! assert!(hosts.iter().all(|&h| world.stack(h).is_some()));
//! ```

pub use macedon_core as core;
pub use macedon_lang as lang;
pub use macedon_net as net;
pub use macedon_overlays as overlays;
pub use macedon_scenario as scenario;
pub use macedon_sim as sim;
pub use macedon_transport as transport;

/// The names most programs want in scope.
///
/// ```
/// use macedon::prelude::*;
///
/// // Keys live on a 32-bit ring.
/// let (a, b) = (MacedonKey(10), MacedonKey(20));
/// assert!(MacedonKey(15).in_open(a, b));
/// assert_eq!(a.distance_to(b), 10);
///
/// // Worlds are deterministic discrete-event simulations; an empty
/// // two-host world runs to its horizon immediately.
/// let topo = macedon::net::topology::canned::star(2, macedon::net::topology::LinkSpec::lan());
/// let mut world = World::new(topo, WorldConfig::default());
/// world.run_until(Time::from_secs(1));
/// ```
pub mod prelude {
    pub use macedon_core::app::{shared_deliveries, CollectorApp, StreamKind, StreamerApp};
    pub use macedon_core::{
        Addressing, Agent, AgentState, AppHandler, Bytes, ChannelId, ChannelSpec, Ctx, DownCall,
        Duration, ForwardInfo, MacedonKey, NodeId, NullApp, ProtocolId, Time, TraceLevel, UpCall,
        World, WorldConfig,
    };
    pub use macedon_lang::{InterpretedAgent, SpecRegistry};
    pub use macedon_overlays::{
        Bullet, BulletConfig, Nice, Pastry, PastryConfig, Scribe, ScribeConfig, SplitStream,
        SplitStreamConfig,
    };
    pub use macedon_scenario::{
        run_sweep, ChordOracle, ConvergenceOracle, GridAxis, LatencySummary, MetricsReport,
        OracleCheckReport, PastryRouteOracle, Scenario, ScenarioError, ScenarioOutcome,
        ScenarioRunner, ScribeTreeOracle, Snapshot, StreamShape, SweepCell, SweepReport, SweepSpec,
        Violation,
    };
}
