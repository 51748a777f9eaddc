//! Hostile frames into every roster stack, on both back ends.
//!
//! Each of the nine bundled stacks is built twice — interpreted
//! (`SpecRegistry::build_stack`) and generated
//! (`macedon_generated::build_stack`) — and, after `init`, both are fed
//! one seeded stream of wire frames through `Stack::recv`:
//!
//! * every layer's messages, well formed, with random field values (an
//!   upper layer's inside a `routeIP` tunnel frame, or as the payload
//!   field of a lower layer's message);
//! * the frames the stacks themselves send in reply;
//! * each of those truncated, bit-flipped, re-labelled with a foreign
//!   protocol id or an out-of-range message id, and tunneled;
//! * plain garbage.
//!
//! No frame may panic either stack, and every frame must have the same
//! effects — sends, timers, monitors and trace lines, compared as the
//! round-trip test compares them — on both; so must what reaches the
//! application and the final state of every layer.

use macedon::core::wire::{tunnel_frame, WireWriter};
use macedon::core::{SpanId, Stack, StackEffect};
use macedon::lang::ir::{FieldKind, IrSpec};
use macedon::prelude::*;
use macedon::sim::SimRng;
use std::any::Any;
use std::sync::Arc;

/// Frames fed to each stack.
const FRAMES: usize = 1000;

const NODE: NodeId = NodeId(7);

/// Records what reaches the application.
#[derive(Default)]
struct Recorder(Vec<String>);

impl AppHandler for Recorder {
    fn on_deliver(&mut self, _: &mut Ctx, src: MacedonKey, from: NodeId, payload: Bytes) {
        self.0.push(format!("deliver {src:?} {from:?} {payload:?}"));
    }

    fn on_notify(&mut self, _: &mut Ctx, nbr_type: u32, neighbors: &[NodeId]) {
        self.0.push(format!("notify {nbr_type} {neighbors:?}"));
    }

    fn on_upcall_ext(&mut self, _: &mut Ctx, op: u32, payload: Bytes) {
        self.0.push(format!("ext {op} {payload:?}"));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn stack(agents: Vec<Box<dyn Agent>>) -> Stack {
    Stack::new(
        NODE,
        MacedonKey::of_node(NODE, Addressing::Hash),
        agents,
        Box::new(Recorder::default()),
        SimRng::new(11),
    )
}

/// A well-formed message `id` of `ir` with random field values; a
/// payload field holds `inner` when given.
fn message(rng: &mut SimRng, ir: &IrSpec, id: usize, inner: Option<&Bytes>) -> Bytes {
    let node = |rng: &mut SimRng| match rng.gen_range(8) {
        0 => NodeId(u32::MAX), // null
        1 => NODE,
        n => NodeId(n as u32),
    };
    let mut w = WireWriter::new();
    w.u16(ir.proto).u16(id as u16);
    for f in &ir.messages[id].fields {
        match f.kind {
            FieldKind::Int => w.u64(rng.gen_range(4).wrapping_sub(1)),
            FieldKind::Bool => w.u8(rng.gen_range(3) as u8),
            FieldKind::Node => w.node(node(rng)),
            FieldKind::Key => w.key(MacedonKey(rng.next_u32())),
            FieldKind::Payload => match inner {
                Some(inner) => w.bytes(inner),
                None => w.bytes(&rng.next_u64().to_be_bytes()[..rng.index(9)]),
            },
            FieldKind::Nodes => {
                let ns: Vec<NodeId> = (0..rng.gen_range(4)).map(|_| node(rng)).collect();
                w.nodes(&ns)
            }
        };
    }
    w.finish()
}

/// A frame of layer `layer` of `chain` as it arrives off the wire.
fn wire_frame(rng: &mut SimRng, chain: &[Arc<IrSpec>], layer: usize) -> Bytes {
    let ir = &chain[layer];
    let id = rng.index(ir.messages.len());
    let msg = message(rng, ir, id, None);
    if layer == 0 {
        return msg;
    }
    let base = &chain[layer - 1];
    // Carried by a lower layer's message that has a payload field, or
    // tunneled.
    let carriers: Vec<usize> = (0..base.messages.len())
        .filter(|&m| (base.messages[m].fields.iter()).any(|f| f.kind == FieldKind::Payload))
        .collect();
    if layer == 1 && !carriers.is_empty() && rng.chance(0.5) {
        let m = *rng.choose(&carriers);
        return message(rng, base, m, Some(&msg));
    }
    tunnel_frame(MacedonKey(rng.next_u32()), &msg)
}

/// `frame` mangled one of the hostile ways.
fn mangle(rng: &mut SimRng, frame: &Bytes, protos: &[u16]) -> Bytes {
    let mut b = frame.to_vec();
    match rng.gen_range(7) {
        0 => return frame.clone(),
        1 => b.truncate(rng.index(b.len() + 1)),
        2 => {
            for _ in 0..=rng.gen_range(3) {
                if !b.is_empty() {
                    let i = rng.index(b.len());
                    b[i] ^= 1 << rng.gen_range(8);
                }
            }
        }
        3 if b.len() >= 2 => {
            // A foreign protocol: a neighbor's id or a random one.
            let p = match rng.chance(0.5) {
                true => rng.choose(protos).wrapping_add(1),
                false => rng.next_u32() as u16,
            };
            b[..2].copy_from_slice(&p.to_be_bytes());
        }
        4 if b.len() >= 4 => {
            let id = 16 + rng.gen_range(100) as u16;
            b[2..4].copy_from_slice(&id.to_be_bytes());
        }
        5 => {
            let t = tunnel_frame(MacedonKey(rng.next_u32()), frame);
            return t.slice(0..t.len() - rng.index(3));
        }
        _ => {
            b = (0..rng.gen_range(24))
                .map(|_| rng.next_u32() as u8)
                .collect();
        }
    }
    Bytes::from(b)
}

fn sent(fx: &[StackEffect]) -> impl Iterator<Item = Bytes> + '_ {
    fx.iter().filter_map(|e| match e {
        StackEffect::Send { bytes, .. } => Some(bytes.clone()),
        _ => None,
    })
}

#[test]
fn hostile_frames_never_panic_and_both_back_ends_agree() {
    let reg = SpecRegistry::bundled();
    for (i, &proto) in macedon_generated::PROTOCOLS.iter().enumerate() {
        let chain = reg.resolve_chain(proto).expect("bundled chain");
        let protos: Vec<u16> = chain.iter().map(|ir| ir.proto).collect();
        let bootstrap = Some(NodeId(0));
        let mut interpreted = stack(reg.build_stack(proto, bootstrap).expect("builds"));
        let mut generated = stack(macedon_generated::build_stack(proto, bootstrap).expect("known"));
        let mut rng = SimRng::new(0x5eed ^ i as u64);
        let mut replies: Vec<Bytes> = Vec::new();
        for f in 0..=FRAMES {
            let now = Time::from_millis(f as u64);
            let (mut want, mut got) = (Vec::new(), Vec::new());
            if f == 0 {
                interpreted.init(now, &mut want);
                generated.init(now, &mut got);
            } else {
                let frame = match rng.gen_range(3) {
                    0 if !replies.is_empty() => rng.choose(&replies).clone(),
                    _ => {
                        let layer = rng.index(chain.len());
                        wire_frame(&mut rng, &chain, layer)
                    }
                };
                let frame = mangle(&mut rng, &frame, &protos);
                let from = NodeId(rng.gen_range(10) as u32);
                interpreted.recv(now, from, frame.clone(), SpanId::NONE, &mut want);
                generated.recv(now, from, frame, SpanId::NONE, &mut got);
            }
            assert_eq!(
                format!("{want:#?}"),
                format!("{got:#?}"),
                "{proto}, frame {f}: the back ends disagree"
            );
            replies.extend(sent(&want).take(4));
            replies.truncate(64);
        }
        let record = |s: &Stack| {
            let app: &Recorder = s.app().as_any().downcast_ref().unwrap();
            app.0.clone()
        };
        assert_eq!(record(&interpreted), record(&generated), "{proto}: app");
        for l in 0..chain.len() {
            assert_eq!(
                interpreted.agent(l).view(),
                generated.agent(l).view(),
                "{proto}: layer {l}"
            );
        }
    }
}
