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
    use crate::experiments::{mean, route_latencies};
    use macedon_net::topology::{canned, LinkSpec};

    /// Fig 11's run on an `n`-node star LAN, each agent behind the RMI
    /// queue when `rmi` is set: every packet's delay.
    fn latencies(n: usize, rmi: bool) -> Vec<f64> {
        route_latencies(canned::star(n, LinkSpec::lan()), 60, 20, rmi)
    }

    #[test]
    fn rmi_model_still_delivers() {
        // 10 streamers, one packet every 0.8 s for 20 s each.
        assert_eq!(latencies(10, true).len(), 10 * 25, "every packet delivered");
    }

    /// The Fig 11 headline: MACEDON Pastry's latency is far below the
    /// RMI-modelled FreePastry, with every packet delivered in both.
    #[test]
    fn macedon_latency_well_below_freepastry() {
        let (native, rmi) = (latencies(16, false), latencies(16, true));
        assert_eq!(native.len(), 16 * 25, "every native packet delivered");
        assert_eq!(rmi.len(), 16 * 25, "every RMI packet delivered");
        let (native, rmi) = (mean(native), mean(rmi));
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
