//! # macedon-lang
//!
//! The MACEDON domain-specific language (Figure 4 of the paper): lexer,
//! recursive-descent parser, semantic analysis, an **interpreter** that
//! executes `.mac` specifications as live [`macedon_core::Agent`]s, and a
//! **code generator** that emits the Rust agent source the paper's
//! `macedon` translator would produce (it emitted C++; the artifact here
//! is the idiomatic equivalent).
//!
//! A protocol specification has the shape:
//!
//! ```text
//! protocol overcast;
//! addressing hash;
//! trace_ med;
//!
//! constants { PINT = 10000; }
//! states { joining; probing; probed; joined; }
//! neighbor_types { oparent 1 { } ochildren 8 { int delay; } }
//! transports { SWP HIGHEST; TCP HIGH; UDP BEST_EFFORT; }
//! messages { BEST_EFFORT join { node who; } HIGHEST join_reply { int response; } }
//! state_variables {
//!     oparent papa;
//!     fail_detect ochildren kids;
//!     timer probe_requester;
//!     int count;
//! }
//! transitions {
//!     any API init { ... }
//!     joining recv join_reply [locking write;] { ... }
//!     probing timer keep_probing [locking read;] { ... }
//!     !(joining|init) recv join { ... }
//! }
//! ```
//!
//! The `specs/` directory ships specifications for all eight overlays the
//! paper implements (plus RandTree, Bullet's base). Every spec — layered
//! ones included — runs under the interpreter: [`registry::SpecRegistry`]
//! resolves a spec's `uses` chain (splitstream → scribe → pastry) and
//! assembles the interpreted layers into a ready-to-run stack, and the
//! integration suite cross-validates interpreted overlays against the
//! native agents.

pub mod ast;
pub mod codegen;
pub mod interp;
pub mod ir;
pub mod lexer;
pub mod loc;
pub mod parser;
pub mod registry;
pub mod sema;

// Behaviour tests of the bundled roster, one module per protocol, each
// running its spec interpreted in small seeded worlds.
#[cfg(test)]
#[path = "roster/ammo.rs"]
mod ammo;
#[cfg(test)]
#[path = "roster/chord.rs"]
mod chord;
#[cfg(test)]
#[path = "roster/overcast.rs"]
mod overcast;
#[cfg(test)]
#[path = "roster/randtree.rs"]
mod randtree;
#[cfg(test)]
mod roster {
    pub(crate) mod testworld;
}

pub use ast::Spec;
pub use interp::InterpretedAgent;
pub use ir::IrSpec;
pub use lexer::{Lexer, ParseError, Token, TokenKind};
pub use parser::parse;
pub use registry::{ChainError, ConstantError, SpecRegistry};
pub use sema::analyze;

/// Parse + semantically check a specification in one call.
pub fn compile(source: &str) -> Result<Spec, ParseError> {
    let spec = parse(source)?;
    analyze(&spec)?;
    Ok(spec)
}

/// The bundled specifications (name, source): the eight overlays of the
/// paper's Figure 7 plus RandTree (Bullet's base layer, Figure 2).
pub fn bundled_specs() -> Vec<(&'static str, &'static str)> {
    vec![
        ("ammo", include_str!("../specs/ammo.mac")),
        ("bullet", include_str!("../specs/bullet.mac")),
        ("chord", include_str!("../specs/chord.mac")),
        ("nice", include_str!("../specs/nice.mac")),
        ("overcast", include_str!("../specs/overcast.mac")),
        ("pastry", include_str!("../specs/pastry.mac")),
        ("randtree", include_str!("../specs/randtree.mac")),
        ("scribe", include_str!("../specs/scribe.mac")),
        ("splitstream", include_str!("../specs/splitstream.mac")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_bundled_specs_compile() {
        for (name, src) in bundled_specs() {
            match compile(src) {
                Ok(spec) => assert_eq!(spec.name, name, "protocol name matches file"),
                Err(e) => panic!("{name}.mac failed to compile: {e}"),
            }
        }
    }

    #[test]
    fn scribe_uses_pastry_by_default() {
        let (_, src) = bundled_specs()
            .into_iter()
            .find(|(n, _)| *n == "scribe")
            .unwrap();
        let spec = compile(src).unwrap();
        assert_eq!(spec.uses.as_deref(), Some("pastry"));
    }
}
