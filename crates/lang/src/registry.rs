//! The spec registry and stack assembler: resolve a specification's
//! `uses` chain against a set of compiled specs and compose the
//! interpreted layers into a ready-to-run stack for
//! [`macedon_core::World::spawn_at`].
//!
//! The paper's layering declaration ("protocol scribe uses pastry")
//! is transitive: `splitstream` uses `scribe` uses `pastry`. The
//! registry walks that chain, diagnosing dangling bases and cycles
//! properly (instead of a panic at instantiation time), and returns the
//! layers lowest-first — the order [`macedon_core::Stack`] expects.
//!
//! Mixed stacks are first-class: [`SpecRegistry::resolve_chain`] hands
//! back the ordered specs so a caller can substitute a native agent for
//! any layer (e.g. native Pastry under an interpreted `scribe.mac`),
//! while [`SpecRegistry::build_stack`] is the all-interpreted
//! convenience path.

use crate::ast::{Spec, StateVar, TraceMode};
use crate::interp::{channel_table, InterpretedAgent};
use crate::ir::IrSpec;
use crate::lexer::ParseError;
use macedon_core::app::SharedDeliveries;
use macedon_core::{Agent, ChannelSpec, Duration, NodeId, TraceLevel, World, WorldConfig};
use macedon_net::Topology;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Why a `uses` chain failed to resolve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChainError {
    /// The requested protocol is not in the registry.
    UnknownSpec(String),
    /// `spec` declares `uses base` but `base` is not in the registry.
    UnknownBase { spec: String, base: String },
    /// Following `uses` revisited a protocol; the cycle is reported in
    /// walk order starting at the revisited name.
    Cycle(Vec<String>),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::UnknownSpec(name) => {
                write!(f, "no specification named '{name}' in the registry")
            }
            ChainError::UnknownBase { spec, base } => {
                write!(f, "'{spec}' uses '{base}', which is not in the registry")
            }
            ChainError::Cycle(names) => {
                write!(f, "cyclic 'uses' chain: {}", names.join(" -> "))
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// Why [`SpecRegistry::set_constants`] refused an override.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConstantError {
    /// The named protocol is not in the registry.
    UnknownSpec(String),
    /// `spec` declares no constant named `constant`.
    UnknownConstant { spec: String, constant: String },
    /// `spec` with the overrides does not compile (a constant divisor
    /// overridden to zero).
    Rejected { spec: String, error: ParseError },
}

impl fmt::Display for ConstantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstantError::UnknownSpec(name) => {
                write!(f, "no specification named '{name}' in the registry")
            }
            ConstantError::UnknownConstant { spec, constant } => {
                write!(f, "'{spec}' declares no constant '{constant}'")
            }
            ConstantError::Rejected { spec, error } => {
                write!(f, "'{spec}' with the overrides does not compile: {error}")
            }
        }
    }
}

impl std::error::Error for ConstantError {}

/// A set of compiled specifications addressable by protocol name.
///
/// A spec is registered already lowered ([`crate::compile`] returns
/// the [`IrSpec`]); every stack the registry assembles shares that one
/// `Arc<IrSpec>` across all nodes and layers.
#[derive(Default)]
pub struct SpecRegistry {
    specs: HashMap<String, Arc<IrSpec>>,
}

impl SpecRegistry {
    pub fn new() -> SpecRegistry {
        SpecRegistry::default()
    }

    /// Registry preloaded with the nine bundled `.mac` specs.
    ///
    /// The roster is lexed, parsed and lowered at most once per
    /// process: the first call pays the whole compile (about a
    /// millisecond), every later one — each sweep cell asks for its own
    /// registry — clones nine `Arc`s into a fresh registry. The
    /// registries are independent: [`SpecRegistry::insert`] over a
    /// bundled name replaces it in that registry only.
    pub fn bundled() -> SpecRegistry {
        static ROSTER: OnceLock<Vec<Arc<IrSpec>>> = OnceLock::new();
        let roster = ROSTER.get_or_init(|| {
            crate::bundled_specs()
                .into_iter()
                .map(|(_, src)| Arc::new(crate::compile(src).expect("bundled spec compiles")))
                .collect()
        });
        let mut r = SpecRegistry::new();
        for ir in roster {
            r.insert(ir.clone());
        }
        r
    }

    /// Register a compiled spec under its protocol name, replacing any
    /// previous spec of the same name.
    pub fn insert(&mut self, ir: Arc<IrSpec>) {
        self.specs.insert(ir.name.clone(), ir);
    }

    /// Instantiate `name` with some of its `constants` overridden: the
    /// registered spec's parsed form is cloned, the named constants (and
    /// any timer period declared by one of them) take the given values,
    /// and the copy is lowered once and registered under the same name —
    /// in this registry only. Every other registry,
    /// [`SpecRegistry::bundled`]'s included, keeps sharing the original.
    /// A copy that no longer compiles (a constant divisor set to zero)
    /// is refused and registers nothing.
    /// Generated agents are not affected: their constants stay the
    /// spec's.
    pub fn set_constants(
        &mut self,
        name: &str,
        overrides: &[(&str, i64)],
    ) -> Result<(), ConstantError> {
        let mut spec = Spec::clone(
            &self
                .specs
                .get(name)
                .ok_or_else(|| ConstantError::UnknownSpec(name.to_string()))?
                .spec,
        );
        for &(constant, value) in overrides {
            let mut found = false;
            for (_, v) in spec.constants.iter_mut().filter(|(n, _)| n == constant) {
                *v = value;
                found = true;
            }
            if !found {
                return Err(ConstantError::UnknownConstant {
                    spec: name.to_string(),
                    constant: constant.to_string(),
                });
            }
            for var in &mut spec.state_vars {
                if let StateVar::Timer {
                    period_ms,
                    period_const: Some(c),
                    ..
                } = var
                {
                    if c == constant {
                        *period_ms = Some(value);
                    }
                }
            }
        }
        let ir = IrSpec::lower(Arc::new(spec)).map_err(|error| ConstantError::Rejected {
            spec: name.to_string(),
            error,
        })?;
        self.insert(Arc::new(ir));
        Ok(())
    }

    /// The shared lowered form of a registered spec.
    pub fn get(&self, name: &str) -> Option<&Arc<IrSpec>> {
        self.specs.get(name)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.specs.keys().map(|s| s.as_str())
    }

    /// Resolve `name`'s transitive `uses` chain. Returns the specs
    /// **lowest layer first** (`splitstream` → `[pastry, scribe,
    /// splitstream]`), or a diagnostic for dangling or cyclic chains.
    pub fn resolve_chain(&self, name: &str) -> Result<Vec<Arc<IrSpec>>, ChainError> {
        let mut chain = Vec::new(); // top-first while walking
        let mut walked: Vec<String> = Vec::new();
        let mut cur = self
            .specs
            .get(name)
            .ok_or_else(|| ChainError::UnknownSpec(name.to_string()))?;
        loop {
            if walked.contains(&cur.name) {
                let mut cycle = walked.clone();
                cycle.push(cur.name.clone());
                // Trim to the cycle proper: start at the revisited name.
                let start = cycle.iter().position(|n| n == &cur.name).unwrap_or(0);
                return Err(ChainError::Cycle(cycle.split_off(start)));
            }
            walked.push(cur.name.clone());
            chain.push(cur.clone());
            match cur.uses.as_deref() {
                None => break,
                Some(base) => {
                    cur = self
                        .specs
                        .get(base)
                        .ok_or_else(|| ChainError::UnknownBase {
                            spec: cur.name.clone(),
                            base: base.to_string(),
                        })?;
                }
            }
        }
        chain.reverse();
        Ok(chain)
    }

    /// Assemble the all-interpreted stack for `name`, lowest layer
    /// first, ready for [`macedon_core::World::spawn_at`]. `bootstrap`
    /// is handed to every layer (`None` for the designated root). Every
    /// layer executes the registry's shared `Arc<IrSpec>` — spawning a
    /// thousand nodes lowers nothing.
    pub fn build_stack(
        &self,
        name: &str,
        bootstrap: Option<NodeId>,
    ) -> Result<Vec<Box<dyn Agent>>, ChainError> {
        let chain = self.resolve_chain(name)?;
        let base_transports = &chain[0].spec.transports;
        Ok(chain
            .iter()
            .map(|ir| {
                let mut agent = InterpretedAgent::new(ir.clone(), bootstrap);
                if ir.layered {
                    // Layered message classes resolve against the
                    // lowest (tunneling) layer's transport table.
                    agent.set_base_transports(base_transports);
                }
                Box::new(agent) as Box<dyn Agent>
            })
            .collect())
    }

    /// The channel table a `World` hosting this stack must be built
    /// with: the lowest layer's transport declarations (upper layers
    /// never touch the wire).
    pub fn channel_table_for(&self, name: &str) -> Result<Vec<ChannelSpec>, ChainError> {
        let chain = self.resolve_chain(name)?;
        Ok(channel_table(&chain[0]))
    }

    /// A world over `topo`, built from `cfg` with `name`'s channel
    /// table, whose every host runs `name`'s interpreted stack, joining
    /// `stagger` apart through the first host
    /// ([`World::spawn_each`]). Returns the world, its hosts and their
    /// delivery log.
    pub fn world(
        &self,
        name: &str,
        topo: Topology,
        cfg: WorldConfig,
        stagger: Duration,
    ) -> Result<(World, Vec<NodeId>, SharedDeliveries), ChainError> {
        let cfg = WorldConfig {
            channels: self.channel_table_for(name)?,
            ..cfg
        };
        let mut w = World::new(topo, cfg);
        let (hosts, sink) = w.spawn_each(stagger, |bootstrap| {
            self.build_stack(name, bootstrap)
                .expect("the chain resolved above")
        });
        Ok((w, hosts, sink))
    }

    /// The engine trace level the spec's `trace_` header asks for —
    /// the **top** spec of the chain decides (it names the deployment;
    /// its bases keep whatever verbosity the stack runs at).
    pub fn trace_level_for(&self, name: &str) -> Result<TraceLevel, ChainError> {
        let ir = self
            .specs
            .get(name)
            .ok_or_else(|| ChainError::UnknownSpec(name.to_string()))?;
        Ok(match ir.spec.trace {
            TraceMode::Off => TraceLevel::Off,
            TraceMode::Low => TraceLevel::Low,
            TraceMode::Med => TraceLevel::Med,
            TraceMode::High => TraceLevel::High,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    fn spec_of(src: &str) -> Arc<IrSpec> {
        Arc::new(compile(src).unwrap())
    }

    fn registry(srcs: &[&str]) -> SpecRegistry {
        let mut r = SpecRegistry::new();
        for s in srcs {
            r.insert(spec_of(s));
        }
        r
    }

    #[test]
    fn chain_resolves_lowest_first() {
        let r = registry(&[
            "protocol c uses b; addressing hash;",
            "protocol b uses a; addressing hash;",
            "protocol a; addressing hash; transports { TCP T; }",
        ]);
        let chain = r.resolve_chain("c").unwrap();
        let names: Vec<&str> = chain.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        // A mid-chain protocol resolves to its own suffix.
        let names: Vec<String> = r
            .resolve_chain("b")
            .unwrap()
            .iter()
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn unknown_spec_and_base_diagnosed() {
        let r = registry(&["protocol top uses ghost; addressing hash;"]);
        assert_eq!(
            r.resolve_chain("nope").unwrap_err(),
            ChainError::UnknownSpec("nope".into())
        );
        let e = r.resolve_chain("top").unwrap_err();
        assert_eq!(
            e,
            ChainError::UnknownBase {
                spec: "top".into(),
                base: "ghost".into()
            }
        );
        assert!(e.to_string().contains("'top' uses 'ghost'"));
    }

    #[test]
    fn cycle_diagnosed() {
        let r = registry(&[
            "protocol x uses y; addressing hash;",
            "protocol y uses x; addressing hash;",
        ]);
        let e = r.resolve_chain("x").unwrap_err();
        let ChainError::Cycle(names) = &e else {
            panic!("expected cycle, got {e:?}");
        };
        assert_eq!(names.first(), names.last());
        assert!(e.to_string().contains("cyclic"));
    }

    #[test]
    fn bundled_registry_resolves_the_roster() {
        let r = SpecRegistry::bundled();
        let names: Vec<String> = r
            .resolve_chain("splitstream")
            .unwrap()
            .iter()
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(names, ["pastry", "scribe", "splitstream"]);
        let names: Vec<String> = r
            .resolve_chain("bullet")
            .unwrap()
            .iter()
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(names, ["randtree", "bullet"]);
        // Channel table comes from the lowest layer.
        let table = r.channel_table_for("splitstream").unwrap();
        assert_eq!(table[0].name, "CTRL");
    }

    #[test]
    fn bundled_registries_share_one_compiled_roster() {
        let (a, b) = (SpecRegistry::bundled(), SpecRegistry::bundled());
        let mut names: Vec<&str> = a.names().collect();
        names.sort_unstable();
        let bundled: Vec<&str> = crate::bundled_specs().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, bundled);
        for name in names {
            assert!(Arc::ptr_eq(a.get(name).unwrap(), b.get(name).unwrap()));
        }
    }

    #[test]
    fn insert_over_a_bundled_name_stays_in_that_registry() {
        let mut mine = SpecRegistry::bundled();
        let bundled_ir = mine.get("chord").unwrap().clone();
        mine.insert(spec_of(
            "protocol chord; addressing ip; transports { UDP ONLY; }",
        ));
        assert!(!Arc::ptr_eq(mine.get("chord").unwrap(), &bundled_ir));
        assert_eq!(mine.channel_table_for("chord").unwrap()[0].name, "ONLY");
        // The next registry still gets the bundled chord, and every
        // other name in `mine` is still the shared one.
        let next = SpecRegistry::bundled();
        assert!(Arc::ptr_eq(next.get("chord").unwrap(), &bundled_ir));
        assert_ne!(next.channel_table_for("chord").unwrap()[0].name, "ONLY");
        assert!(Arc::ptr_eq(
            mine.get("pastry").unwrap(),
            next.get("pastry").unwrap()
        ));
    }

    #[test]
    fn unknown_spec_or_constant_override_is_a_typed_error() {
        let mut r = SpecRegistry::bundled();
        assert_eq!(
            r.set_constants("ghost", &[("X", 1)]),
            Err(ConstantError::UnknownSpec("ghost".into()))
        );
        let e = r.set_constants("chord", &[("FIX_FINGERS_MS", 5), ("NOPE", 1)]);
        assert_eq!(
            e,
            Err(ConstantError::UnknownConstant {
                spec: "chord".into(),
                constant: "NOPE".into()
            })
        );
        // A refused override registers nothing.
        assert!(Arc::ptr_eq(
            r.get("chord").unwrap(),
            SpecRegistry::bundled().get("chord").unwrap()
        ));
    }

    #[test]
    fn set_constants_stays_in_its_registry() {
        let roster = SpecRegistry::bundled();
        let mut lsd = SpecRegistry::bundled();
        lsd.set_constants("chord", &[("FIX_FINGERS_MS", 4000), ("FF_MIN_MS", 500)])
            .unwrap();
        let fix = |r: &SpecRegistry| {
            r.get("chord")
                .unwrap()
                .vars
                .iter()
                .find(|v| v.name == "FIX_FINGERS_MS")
                .and_then(|v| v.constant)
        };
        assert_eq!(fix(&lsd), Some(4000));
        let next = SpecRegistry::bundled();
        assert_eq!(fix(&next), Some(1000));
        assert!(Arc::ptr_eq(
            next.get("chord").unwrap(),
            roster.get("chord").unwrap()
        ));
        // Untouched specs of the overridden registry are the roster's.
        for name in roster.names().filter(|&n| n != "chord") {
            assert!(Arc::ptr_eq(
                lsd.get(name).unwrap(),
                roster.get(name).unwrap()
            ));
        }
    }

    #[test]
    fn overridden_constant_re_resolves_a_timer_period() {
        let mut r = SpecRegistry::bundled();
        r.set_constants("bullet", &[("RANSUB_MS", 750)]).unwrap();
        let ir = r.get("bullet").unwrap();
        let period = |name: &str| ir.timers.iter().find(|t| t.name == name).unwrap().period_ms;
        assert_eq!(period("ransub_t"), Some(750));
        assert_eq!(period("recover_t"), Some(1000));
    }

    #[test]
    fn overridden_fix_fingers_period_drives_the_timer() {
        use crate::interp::Value;
        use macedon_core::Time;
        use macedon_net::topology::{canned, LinkSpec};
        // `finger_step` doubles on every `fix_fingers` firing.
        let step_at = |r: &SpecRegistry, ms: u64| {
            let (topo, stagger) = (canned::star(2, LinkSpec::lan()), Duration::from_millis(100));
            let (mut w, hosts, _sink) = r
                .world("chord", topo, WorldConfig::default(), stagger)
                .unwrap();
            w.run_until(Time::from_millis(ms));
            let root: &InterpretedAgent = w
                .stack(hosts[0])
                .unwrap()
                .agent(0)
                .as_any()
                .downcast_ref()
                .unwrap();
            root.var("finger_step")
        };
        let mut slow = SpecRegistry::bundled();
        slow.set_constants("chord", &[("FIX_FINGERS_MS", 20_000)])
            .unwrap();
        assert_eq!(step_at(&slow, 19_900), Some(Value::Int(1)));
        assert_eq!(step_at(&slow, 20_100), Some(Value::Int(2)));
        assert_eq!(
            step_at(&SpecRegistry::bundled(), 1_100),
            Some(Value::Int(2))
        );
    }

    #[test]
    fn stacks_share_one_ir_per_spec() {
        let r = SpecRegistry::bundled();
        let ir = r.get("pastry").expect("lowered at registration").clone();
        // Identity by pointer: the bundled IR's reference count also
        // moves with every other test's registries and stacks.
        let stacks: Vec<_> = (0..4)
            .map(|_| r.build_stack("scribe", None).unwrap())
            .collect();
        for s in &stacks {
            let a: &InterpretedAgent = s[0].as_any().downcast_ref().unwrap();
            assert!(Arc::ptr_eq(a.ir(), &ir));
        }
    }

    #[test]
    fn build_stack_orders_layers() {
        let r = SpecRegistry::bundled();
        let stack = r.build_stack("scribe", None).unwrap();
        assert_eq!(stack.len(), 2);
        assert_eq!(
            stack[0].protocol_id(),
            crate::interp::protocol_id_of("pastry")
        );
        assert_eq!(
            stack[1].protocol_id(),
            crate::interp::protocol_id_of("scribe")
        );
    }
}
