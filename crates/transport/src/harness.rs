//! A self-contained mini-world that couples transport endpoints to the
//! emulated network — used by this crate's integration-style tests and by
//! the benchmark suite. (The full MACEDON engine in `macedon-core` builds
//! its own richer world; this one exists so the transport layer can be
//! exercised and measured in isolation.)

use crate::endpoint::{ChannelId, ChannelSpec, Endpoint, TimerKey, TimerKind, TransportSink};
use crate::segment::Segment;
use bytes::Bytes;
use macedon_net::{NetEvent, Network, NetworkConfig, NodeId, Sink, Topology};
use macedon_sim::{EventId, Scheduler, Time};
use std::collections::HashMap;
use std::sync::Arc;

/// Events in the transport test world.
pub enum Ev {
    Net(NetEvent),
    Rto(TimerKey),
}

/// A network plus one endpoint per host.
pub struct TransportWorld {
    pub net: Network<Segment>,
    pub sched: Scheduler<Ev>,
    pub endpoints: HashMap<NodeId, Endpoint>,
    /// Live scheduler entry per connection timer class; re-arms cancel
    /// the superseded entry (mirrors the full engine's bookkeeping).
    timers: HashMap<(NodeId, NodeId, ChannelId, TimerKind), EventId>,
    /// Everything delivered to application level: (at, to, from, channel, bytes).
    pub inbox: Vec<(Time, NodeId, NodeId, ChannelId, Bytes)>,
}

impl TransportWorld {
    pub fn new(topo: Topology, channels: Vec<ChannelSpec>) -> TransportWorld {
        let hosts = topo.hosts().to_vec();
        let net = Network::new(topo, NetworkConfig::default());
        let channels: Arc<[ChannelSpec]> = channels.into();
        let endpoints = hosts
            .into_iter()
            .map(|h| (h, Endpoint::new(h, channels.clone())))
            .collect();
        TransportWorld {
            net,
            sched: Scheduler::new(),
            endpoints,
            timers: HashMap::new(),
            inbox: Vec::new(),
        }
    }

    fn absorb_timers(&mut self, tout: &mut TransportSink) {
        for key in tout.cancel_timers.drain(..) {
            if let Some(ev) = self.timers.remove(&key.slot()) {
                self.sched.cancel(ev);
            }
        }
        for (at, key) in tout.timers.drain(..) {
            let slot = key.slot();
            let ev = self.sched.schedule_timer(at, Ev::Rto(key));
            if let Some(old) = self.timers.insert(slot, ev) {
                self.sched.cancel(old);
            }
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.sched.now()
    }

    /// Send a message between hosts at the current virtual time.
    pub fn send(&mut self, src: NodeId, dst: NodeId, ch: ChannelId, msg: Bytes) {
        let now = self.sched.now();
        let mut tout = TransportSink::new();
        self.endpoints
            .get_mut(&src)
            .expect("unknown src host")
            .send(now, dst, ch, msg, 0, &mut tout);
        self.absorb(now, src, tout);
    }

    /// Run until the queue drains or `deadline` passes.
    pub fn run_until(&mut self, deadline: Time) {
        while let Some((now, ev)) = self.sched.pop_before(deadline) {
            match ev {
                Ev::Net(nev) => {
                    let mut nout = Sink::new();
                    self.net.handle(now, nev, &mut nout);
                    self.absorb_net(nout);
                }
                Ev::Rto(key) => {
                    self.timers.remove(&key.slot());
                    let mut tout = TransportSink::new();
                    if let Some(ep) = self.endpoints.get_mut(&key.node) {
                        ep.on_timer(now, key, &mut tout);
                    }
                    self.absorb(now, key.node, tout);
                }
            }
        }
        self.sched.fast_forward(deadline);
    }

    /// Apply what `node`'s endpoint asked for at `now`.
    fn absorb(&mut self, now: Time, node: NodeId, mut tout: TransportSink) {
        let mut nout = Sink::new();
        for pkt in tout.packets.drain(..) {
            self.net.send(now, pkt, &mut nout);
        }
        self.absorb_timers(&mut tout);
        for (from, ch, msg, _span) in tout.delivered.drain(..) {
            self.inbox.push((now, node, from, ch, msg));
        }
        self.absorb_net(nout);
    }

    fn absorb_net(&mut self, mut nout: Sink<Segment>) {
        for (t, ev) in nout.schedule.drain(..) {
            self.sched.schedule(t, Ev::Net(ev));
        }
        for d in nout.delivered.drain(..) {
            let to = d.pkt.dst;
            let mut tout = TransportSink::new();
            if let Some(ep) = self.endpoints.get_mut(&to) {
                ep.on_packet(d.at, d.pkt.src, d.pkt.payload, &mut tout);
            }
            self.absorb(d.at, to, tout);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::TransportKind;
    use macedon_net::topology::{canned, LinkSpec};
    use macedon_sim::Duration;

    fn world() -> TransportWorld {
        TransportWorld::new(
            canned::two_hosts(LinkSpec::lan()),
            ChannelSpec::default_table(),
        )
    }

    fn hosts(w: &TransportWorld) -> (NodeId, NodeId) {
        let h = w.net.topology().hosts().to_vec();
        (h[0], h[1])
    }

    #[test]
    fn tcp_message_delivered_over_network() {
        let mut w = world();
        let (a, b) = hosts(&w);
        let ch = w.endpoints[&a].channel_by_name("HIGH").unwrap();
        w.send(a, b, ch, Bytes::from_static(b"over the wire"));
        w.run_until(Time::from_secs(5));
        assert_eq!(w.inbox.len(), 1);
        let (_, to, from, _, msg) = &w.inbox[0];
        assert_eq!((*to, *from), (b, a));
        assert_eq!(&msg[..], b"over the wire");
    }

    #[test]
    fn tcp_reliable_under_heavy_loss() {
        let mut w = world();
        let (a, b) = hosts(&w);
        w.net.faults_mut().set_drop_probability(0.15);
        let ch = w.endpoints[&a].channel_by_name("HIGH").unwrap();
        for i in 0..50u32 {
            w.send(a, b, ch, Bytes::from(i.to_be_bytes().to_vec()));
        }
        w.run_until(Time::from_secs(600));
        assert_eq!(w.inbox.len(), 50, "all messages delivered despite loss");
        // In order and exactly once.
        let got: Vec<u32> = w
            .inbox
            .iter()
            .map(|(_, _, _, _, m)| u32::from_be_bytes([m[0], m[1], m[2], m[3]]))
            .collect();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        let stats = w.endpoints[&a].channel_stats(ch);
        assert!(
            stats.retransmissions > 0,
            "loss must have caused retransmits"
        );
    }

    #[test]
    fn swp_reliable_under_loss() {
        let mut w = world();
        let (a, b) = hosts(&w);
        w.net.faults_mut().set_drop_probability(0.1);
        let ch = w.endpoints[&a].channel_by_name("HIGHEST").unwrap();
        for i in 0..20u8 {
            w.send(a, b, ch, Bytes::from(vec![i; 64]));
        }
        w.run_until(Time::from_secs(600));
        assert_eq!(w.inbox.len(), 20);
    }

    #[test]
    fn udp_lossy_delivery() {
        let mut w = world();
        let (a, b) = hosts(&w);
        w.net.faults_mut().set_drop_probability(0.3);
        let ch = w.endpoints[&a].channel_by_name("BEST_EFFORT").unwrap();
        for i in 0..100u8 {
            w.send(a, b, ch, Bytes::from(vec![i]));
        }
        w.run_until(Time::from_secs(60));
        assert!(w.inbox.len() < 100, "UDP must lose some");
        assert!(!w.inbox.is_empty(), "UDP must deliver some");
    }

    #[test]
    fn large_message_crosses_mtu() {
        let mut w = world();
        let (a, b) = hosts(&w);
        let ch = w.endpoints[&a].channel_by_name("HIGH").unwrap();
        let payload: Vec<u8> = (0..100_000).map(|i| (i % 256) as u8).collect();
        w.send(a, b, ch, Bytes::from(payload.clone()));
        w.run_until(Time::from_secs(60));
        assert_eq!(w.inbox.len(), 1);
        assert_eq!(&w.inbox[0].4[..], &payload[..]);
    }

    #[test]
    fn tcp_backs_off_under_congestion_swp_does_not() {
        // Two flows share a slow bottleneck; the SWP flow (fixed window)
        // should keep a higher share than a TCP flow would against it.
        let topo = canned::dumbbell(
            2,
            LinkSpec::lan(),
            LinkSpec::new(Duration::from_millis(10), 2_000_000, 16 * 1024),
        );
        let mut w = TransportWorld::new(
            topo,
            vec![
                ChannelSpec::new("T", TransportKind::Tcp),
                ChannelSpec::new("S", TransportKind::Swp { window: 32 }),
            ],
        );
        let h = w.net.topology().hosts().to_vec();
        let (a1, a2, b1, b2) = (h[0], h[1], h[2], h[3]);
        let tcp = ChannelId(0);
        let swp = ChannelId(1);
        let chunk = vec![0u8; 100_000];
        for _ in 0..5 {
            w.send(a1, b1, tcp, Bytes::from(chunk.clone()));
            w.send(a2, b2, swp, Bytes::from(chunk.clone()));
        }
        w.run_until(Time::from_secs(120));
        let tcp_retx = w.endpoints[&a1].channel_stats(tcp).retransmissions;
        let swp_retx = w.endpoints[&a2].channel_stats(swp).retransmissions;
        // Both complete reliably...
        assert_eq!(w.inbox.len(), 10);
        // ...and contention causes retransmissions somewhere.
        assert!(tcp_retx + swp_retx > 0, "bottleneck should cause loss");
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut w = world();
            let (a, b) = hosts(&w);
            w.net.faults_mut().set_drop_probability(0.2);
            let ch = w.endpoints[&a].channel_by_name("HIGH").unwrap();
            for i in 0..30u8 {
                w.send(a, b, ch, Bytes::from(vec![i; 200]));
            }
            w.run_until(Time::from_secs(300));
            (w.inbox.len(), w.now(), w.sched.events_fired())
        };
        assert_eq!(run(), run());
    }
}
