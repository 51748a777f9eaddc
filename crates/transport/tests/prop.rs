//! Property tests on the transports: exactly-once, in-order delivery
//! under arbitrary loss patterns — the core reliability invariant —
//! including across idle gaps, where every connection gives its buffers
//! back and takes them again on the next burst.

use bytes::Bytes;
use macedon_net::topology::{canned, LinkSpec};
use macedon_net::{NodeId, Packet};
use macedon_sim::{Duration, Scheduler, SimRng, Time};
use macedon_transport::harness::TransportWorld;
use macedon_transport::segment::MSS;
use macedon_transport::{pooled_bytes, ChannelSpec, Endpoint, Segment, TimerKey, TransportSink};
use proptest::prelude::*;

fn world_with_loss(seed: u64, p: f64) -> TransportWorld {
    let mut w = TransportWorld::new(
        canned::two_hosts(LinkSpec::lan()),
        ChannelSpec::default_table(),
    );
    let _ = seed;
    w.net.faults_mut().set_drop_probability(p);
    w
}

enum Ev {
    Pkt(Packet<Segment>),
    Timer(TimerKey),
}

/// Two endpoints over a link that drops each packet with probability
/// `loss` and delays the rest by 5 ms plus up to `jitter` more, so
/// packets overtake each other. Superseded timers are left to fire:
/// the connection must shrug off a stale one.
struct Jittery {
    sched: Scheduler<Ev>,
    eps: [Endpoint; 2],
    rng: SimRng,
    loss: f64,
    jitter: u64,
    /// Messages node 1 delivered.
    inbox: Vec<Bytes>,
}

impl Jittery {
    fn new(seed: u64, loss: f64, jitter: Duration) -> Jittery {
        let table: std::sync::Arc<[ChannelSpec]> = ChannelSpec::default_table().into();
        Jittery {
            sched: Scheduler::new(),
            eps: [0, 1].map(|n| Endpoint::new(NodeId(n), table.clone())),
            rng: SimRng::new(seed),
            loss,
            jitter: jitter.0,
            inbox: Vec::new(),
        }
    }

    fn absorb(&mut self, now: Time, node: usize, mut out: TransportSink) {
        for pkt in out.packets.drain(..) {
            if !self.rng.chance(self.loss) {
                let delay = 5_000 + self.rng.gen_range(self.jitter + 1);
                self.sched.schedule(now + Duration(delay), Ev::Pkt(pkt));
            }
        }
        for (at, key) in out.timers.drain(..) {
            self.sched.schedule(at, Ev::Timer(key));
        }
        if node == 1 {
            self.inbox
                .extend(out.delivered.drain(..).map(|(_, _, m, _)| m));
        }
    }

    /// Send a burst from node 0 to node 1 on `channel`, then run until
    /// nothing is left to happen, or for at most 3,000 s of virtual time
    /// (a transport that livelocks fails instead of hanging).
    fn burst(&mut self, channel: &str, msgs: impl IntoIterator<Item = Bytes>) {
        let ch = self.eps[0].channel_by_name(channel).unwrap();
        let now = self.sched.now();
        for m in msgs {
            let mut out = TransportSink::new();
            self.eps[0].send(now, NodeId(1), ch, m, 0, &mut out);
            self.absorb(now, 0, out);
        }
        let deadline = now + Duration::from_secs(3_000);
        while let Some((now, ev)) = self.sched.pop_before(deadline) {
            let mut out = TransportSink::new();
            let node = match ev {
                Ev::Pkt(pkt) => {
                    let to = pkt.dst.index();
                    self.eps[to].on_packet(now, pkt.src, pkt.payload, &mut out);
                    to
                }
                Ev::Timer(key) => {
                    let node = key.node.index();
                    self.eps[node].on_timer(now, key, &mut out);
                    node
                }
            };
            self.absorb(now, node, out);
        }
    }
}

/// Bursts of tagged messages (some several segments long) with idle
/// gaps longer than any RTO between them, over a lossy, reordering
/// link: after each gap every connection holds no buffers, and each
/// burst takes them again; every message arrives once, in order.
fn bursts_survive_idle_gaps(
    channel: &str,
    seed: u64,
    loss: f64,
    bursts: &[Vec<usize>],
) -> Result<(), TestCaseError> {
    let mut w = Jittery::new(seed, loss, Duration::from_millis(8));
    let mut sent = Vec::new();
    for burst in bursts {
        let msgs: Vec<Bytes> = burst
            .iter()
            .map(|&len| {
                let tag = (sent.len() as u32).to_be_bytes();
                let body = (0..len).map(|i| (i % 251) as u8);
                let m: Bytes = tag.into_iter().chain(body).collect();
                sent.push(m.clone());
                m
            })
            .collect();
        w.burst(channel, msgs);
        prop_assert!(w.sched.pop().is_none(), "the burst settled");
        prop_assert_eq!(&w.inbox, &sent, "exactly once, in order, intact");
        prop_assert_eq!(
            w.eps[0].busy_conns() + w.eps[1].busy_conns(),
            0,
            "idle after the burst"
        );
        prop_assert!(pooled_bytes() > 0, "the buffers went back to the free list");
        let gap = w.sched.now() + Duration::from_secs(60);
        w.sched.fast_forward(gap);
    }
    Ok(())
}

/// Message lengths from empty to three segments: a third fit in one.
fn burst_lengths() -> impl Strategy<Value = Vec<Vec<usize>>> {
    let len = 0usize..3 * MSS as usize;
    proptest::collection::vec(proptest::collection::vec(len, 1..12), 2..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// TCP delivers every message exactly once, in order, whatever the
    /// loss rate (below the retransmission-futility threshold).
    #[test]
    fn tcp_exactly_once_in_order(
        seed in any::<u64>(),
        p in 0.0f64..0.3,
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..600), 1..25),
    ) {
        let mut w = world_with_loss(seed, p);
        let hosts = w.net.topology().hosts().to_vec();
        let ch = w.endpoints[&hosts[0]].channel_by_name("HIGH").unwrap();
        for (i, m) in msgs.iter().enumerate() {
            let mut tagged = vec![i as u8];
            tagged.extend_from_slice(m);
            w.send(hosts[0], hosts[1], ch, Bytes::from(tagged));
        }
        w.run_until(Time::from_secs(3_000));
        prop_assert_eq!(w.inbox.len(), msgs.len(), "exactly once");
        for (i, (_, _, _, _, got)) in w.inbox.iter().enumerate() {
            prop_assert_eq!(got[0] as usize, i, "in order");
            prop_assert_eq!(&got[1..], &msgs[i][..], "payload intact");
        }
    }

    /// SWP has the same reliability contract.
    #[test]
    fn swp_exactly_once_in_order(
        seed in any::<u64>(),
        p in 0.0f64..0.25,
        n in 1usize..20,
    ) {
        let mut w = world_with_loss(seed, p);
        let hosts = w.net.topology().hosts().to_vec();
        let ch = w.endpoints[&hosts[0]].channel_by_name("HIGHEST").unwrap();
        for i in 0..n {
            w.send(hosts[0], hosts[1], ch, Bytes::from(vec![i as u8; 32]));
        }
        w.run_until(Time::from_secs(3_000));
        prop_assert_eq!(w.inbox.len(), n);
        for (i, (_, _, _, _, got)) in w.inbox.iter().enumerate() {
            prop_assert_eq!(got[0] as usize, i);
        }
    }

    /// TCP through drain and re-take: bursts over a lossy, reordering
    /// link with idle gaps between them.
    #[test]
    fn tcp_bursts_across_idle_gaps(seed in any::<u64>(), loss in 0.0f64..0.25, bursts in burst_lengths()) {
        bursts_survive_idle_gaps("HIGH", seed, loss, &bursts)?;
    }

    /// SWP through drain and re-take, the same way.
    #[test]
    fn swp_bursts_across_idle_gaps(seed in any::<u64>(), loss in 0.0f64..0.25, bursts in burst_lengths()) {
        bursts_survive_idle_gaps("HIGHEST", seed, loss, &bursts)?;
    }

    /// UDP never duplicates and never reorders *within* what it delivers
    /// on a FIFO path.
    #[test]
    fn udp_no_duplicates(seed in any::<u64>(), p in 0.0f64..0.5, n in 1usize..40) {
        let mut w = world_with_loss(seed, p);
        let hosts = w.net.topology().hosts().to_vec();
        let ch = w.endpoints[&hosts[0]].channel_by_name("BEST_EFFORT").unwrap();
        for i in 0..n {
            w.send(hosts[0], hosts[1], ch, Bytes::from(vec![i as u8]));
        }
        w.run_until(Time::from_secs(60));
        prop_assert!(w.inbox.len() <= n);
        let seqs: Vec<u8> = w.inbox.iter().map(|(_, _, _, _, m)| m[0]).collect();
        let mut sorted = seqs.clone();
        sorted.dedup();
        prop_assert_eq!(&sorted, &seqs, "no duplicates, FIFO subsequence");
    }
}
