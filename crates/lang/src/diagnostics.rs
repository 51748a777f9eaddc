//! What [`crate::compile`] rejects: one invalid spec per diagnostic of
//! the lowering ([`crate::IrSpec::lower`]), type errors and what the
//! code generator could not print included, and the valid specs next to
//! them that must still pass — and run alike on both back ends.

#[cfg(test)]
mod tests {
    use crate::registry::ConstantError;
    use crate::{bundled_specs, codegen, compile, ParseError, SpecRegistry};
    use std::sync::Arc;

    fn check(src: &str) -> Result<(), ParseError> {
        compile(src).map(drop)
    }

    #[test]
    fn owner_of_unknown_list_rejected() {
        let e = check(
            "protocol p; addressing ip;
             state_variables { node n; }
             transitions { any API init { n = owner_of(my_key, ghosts); } }",
        )
        .unwrap_err();
        assert!(e.msg.contains("unknown neighbor list 'ghosts'"));
    }

    #[test]
    fn neighbor_entry_fields_rejected_at_the_field() {
        let e = check(
            "protocol p; addressing ip;
             neighbor_types { parent 1 { } kids 4 { int delay; } }",
        )
        .unwrap_err();
        assert_eq!((e.line, e.col), (2, 53), "{e}");
        assert!(e.msg.contains("neighbor type 'kids' declares entry fields"));
        assert!(e.msg.contains("ROADMAP item 2"), "{}", e.msg);
    }

    #[test]
    fn duplicate_state_rejected() {
        let e = check("protocol p; addressing ip; states { a; a; }").unwrap_err();
        assert!(e.msg.contains("duplicate state"));
    }

    #[test]
    fn init_redeclaration_rejected() {
        let e = check("protocol p; addressing ip; states { init; }").unwrap_err();
        assert!(e.msg.contains("implicit"));
    }

    #[test]
    fn unknown_scope_state_rejected() {
        let e = check("protocol p; addressing ip; states { a; } transitions { b API init { } }")
            .unwrap_err();
        assert!(e.msg.contains("unknown state 'b'"));
    }

    #[test]
    fn unknown_message_in_recv_rejected() {
        let e = check("protocol p; addressing ip; transitions { any recv nope { } }").unwrap_err();
        assert!(e.msg.contains("unknown message"));
    }

    #[test]
    fn undeclared_transport_rejected() {
        let e = check("protocol p; addressing ip; messages { FAST x { } }").unwrap_err();
        assert!(e.msg.contains("undeclared transport"));
    }

    #[test]
    fn layered_protocol_may_skip_transports() {
        // With `uses`, message transports refer to the base's classes.
        check("protocol s uses base; addressing hash; messages { HIGH x { } }").unwrap();
    }

    #[test]
    fn timer_transition_must_reference_declared_timer() {
        let e = check("protocol p; addressing ip; transitions { any timer t { } }").unwrap_err();
        assert!(e.msg.contains("unknown timer"));
    }

    #[test]
    fn unknown_api_name_rejected() {
        let e = check("protocol p; addressing ip; transitions { any API rout { } }").unwrap_err();
        assert!(e.msg.contains("unknown API 'rout'"), "{}", e.msg);
    }

    #[test]
    fn state_change_target_checked() {
        let e = check(
            "protocol p; addressing ip; states { a; }
             transitions { any API init { state_change(zzz); } }",
        )
        .unwrap_err();
        assert!(e.msg.contains("state_change to unknown"));
    }

    #[test]
    fn fail_detect_requires_known_neighbor_type() {
        let e = check("protocol p; addressing ip; state_variables { fail_detect ghosts g; }")
            .unwrap_err();
        assert!(e.msg.contains("undeclared neighbor type"));
    }

    #[test]
    fn self_uses_rejected() {
        let e = check("protocol p uses p; addressing hash;").unwrap_err();
        assert!(e.msg.contains("cannot use itself"));
    }

    #[test]
    fn quash_outside_forward_rejected() {
        let e = check(
            "protocol s uses base; addressing hash;
             messages { m { } }
             transitions { any recv m { quash(); } }",
        )
        .unwrap_err();
        assert!(e.msg.contains("only valid in a 'forward'"));
    }

    #[test]
    fn quash_in_forward_accepted() {
        check(
            "protocol s uses base; addressing hash;
             messages { m { } }
             transitions { any forward m { quash(); } }",
        )
        .unwrap();
    }

    #[test]
    fn downcall_requires_layering() {
        let e = check(
            "protocol p; addressing hash;
             transitions { any API join { downcall(join, group); } }",
        )
        .unwrap_err();
        assert!(e.msg.contains("requires a 'uses'"));
    }

    #[test]
    fn downcall_arity_checked() {
        let e = check(
            "protocol s uses base; addressing hash;
             transitions { any API join { downcall(multicast, group); } }",
        )
        .unwrap_err();
        assert!(e.msg.contains("takes 2 argument"));
        let e = check(
            "protocol s uses base; addressing hash;
             transitions { any API init { downcall(frobnicate, group); } }",
        )
        .unwrap_err();
        assert!(e.msg.contains("unknown downcall API"));
    }

    #[test]
    fn send_arity_checked() {
        let e = check(
            "protocol p; addressing ip; transports { TCP C; }
             messages { C hello { node who; int n; } }
             transitions { any API init { hello(me, me); } }",
        )
        .unwrap_err();
        assert!(e.msg.contains("takes 2 argument"));
    }

    #[test]
    fn assignment_to_undeclared_variable_rejected() {
        let e = check(
            "protocol p; addressing ip;
             transitions { any API init { ghost = 1; } }",
        )
        .unwrap_err();
        assert!(e.msg.contains("undeclared variable 'ghost'"));
    }

    #[test]
    fn assignment_to_foreach_variable_rejected() {
        let e = check(
            "protocol p; addressing ip;
             neighbor_types { kid 4 { } }
             state_variables { kid kids; }
             transitions { any API init { foreach (k in kids) { k = 1; } } }",
        )
        .unwrap_err();
        assert!(e.msg.contains("foreach variable 'k'"));
    }

    #[test]
    fn unknown_variable_reference_rejected() {
        let e = check(
            "protocol p; addressing ip;
             state_variables { int n; }
             transitions { any API init { n = n + phantom; } }",
        )
        .unwrap_err();
        assert!(e.msg.contains("unknown variable 'phantom'"));
    }

    #[test]
    fn field_outside_recv_rejected() {
        let e = check(
            "protocol p; addressing ip;
             state_variables { int n; }
             transitions { any API init { n = field(who); } }",
        )
        .unwrap_err();
        assert!(e.msg.contains("outside a recv/forward"));
    }

    #[test]
    fn field_must_exist_on_triggering_message() {
        let e = check(
            "protocol p; addressing ip; transports { TCP C; }
             messages { C hello { node who; } }
             state_variables { int n; }
             transitions { any recv hello { n = field(nope); } }",
        )
        .unwrap_err();
        assert!(e.msg.contains("no field 'nope'"));
    }

    #[test]
    fn foreach_variable_resolves_inside_body() {
        check(
            "protocol p; addressing ip; transports { TCP C; }
             neighbor_types { kid 4 { } }
             messages { C ping { } }
             state_variables { kid kids; }
             transitions { any API init { foreach (k in kids) { ping(k); } } }",
        )
        .unwrap();
    }

    #[test]
    fn valid_spec_passes() {
        check(
            "protocol p; addressing hash;
             states { joined; }
             neighbor_types { kid 4 { } }
             transports { TCP C; }
             messages { C hello { node who; } }
             state_variables { kid kids; timer t 100; int n; }
             transitions {
                any API init { timer_resched(t, 100); }
                any timer t { n = n + 1; hello(me, me); }
                any recv hello { neighbor_add(kids, from); state_change(joined); }
             }",
        )
        .unwrap();
    }

    #[test]
    fn assignment_to_constant_rejected() {
        let e = check(
            "protocol p; addressing ip; constants { K = 1; }
             transitions { any API init { K = 2; } }",
        )
        .unwrap_err();
        assert!(e.msg.contains("undeclared variable 'K'"), "{e}");
        // A scalar declared under a constant's name shadows it.
        check(
            "protocol p; addressing ip; constants { K = 1; } state_variables { int K; }
             transitions { any API init { K = 2; } }",
        )
        .unwrap();
    }

    #[test]
    fn every_duplicate_declaration_rejected() {
        for (src, what) in [
            ("neighbor_types { k 2 { } k 3 { } }", "neighbor type 'k'"),
            ("transports { TCP A; UDP A; }", "transport 'A'"),
            (
                "transports { TCP A; } messages { A m { } A m { } }",
                "message 'm'",
            ),
            ("state_variables { timer t; timer t 5; }", "timer 't'"),
            (
                "neighbor_types { k 2 { } } state_variables { k a; k a; }",
                "neighbor list 'a'",
            ),
            ("state_variables { int a; bool a; }", "variable 'a'"),
        ] {
            let e = check(&format!("protocol p; addressing ip; {src}")).unwrap_err();
            assert_eq!(e.msg, format!("duplicate {what}"));
        }
    }

    #[test]
    fn transition_diagnostics_name_the_transition() {
        let e = compile("protocol p; addressing ip; transitions { any timer t { } }").unwrap_err();
        assert_eq!(e.to_string(), "0:0: transition 0: unknown timer 't'");
    }

    /// `states { s0; … s{n-1}; }`: `n` declared states plus `init`.
    fn states_spec(n: usize) -> String {
        let mut src = String::from("protocol p; addressing hash; states { ");
        for i in 0..n {
            src.push_str(&format!("s{i}; "));
        }
        src.push('}');
        src
    }

    #[test]
    fn a_spec_past_the_state_mask_is_rejected_by_compile() {
        // 127 declared states plus `init` fill the mask exactly, and the
        // spec registers and builds its stack.
        let full = Arc::new(compile(&states_spec(127)).unwrap());
        assert_eq!(full.states.len(), 128);
        let mut r = SpecRegistry::new();
        r.insert(full);
        assert_eq!(r.build_stack("p", None).unwrap().len(), 1);
        // One more is a compile error, not a panic at registration.
        let e = compile(&states_spec(128)).unwrap_err();
        assert!(e.msg.contains("at most 128"), "{e}");
    }

    #[test]
    fn rtt_of_non_node_diagnosed() {
        let e = compile(
            "protocol p; addressing hash; transports { TCP C; }
             messages { C ping { } }
             state_variables { int n; }
             transitions { any API init { n = rtt(n); } }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("rtt(..) needs a node"), "{e}");
    }

    #[test]
    fn non_constant_divisor_diagnosed() {
        let e = compile(
            "protocol p; addressing ip;
             state_variables { int n; }
             transitions { any API init { n = n / n; } }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("non-constant divisor"), "{e}");
    }

    #[test]
    fn constant_zero_divisor_diagnosed() {
        for divisor in ["0", "Z", "-Z"] {
            let e = compile(&format!(
                "protocol p; addressing ip; constants {{ Z = 0; }}
                 state_variables {{ int n; }}
                 transitions {{ any API init {{ n = n % {divisor}; }} }}"
            ))
            .unwrap_err();
            assert_eq!(
                e.msg, "transition 0: division by constant zero",
                "{divisor}"
            );
        }
        // A nonzero literal or constant divides.
        compile(
            "protocol p; addressing ip; constants { K = 3; }
             state_variables { int n; }
             transitions { any API init { n = n / K + n % -2; } }",
        )
        .unwrap();
    }

    #[test]
    fn a_constant_overridden_to_a_zero_divisor_is_a_typed_error() {
        let mut r = SpecRegistry::new();
        r.insert(Arc::new(
            compile(
                "protocol p; addressing ip; constants { K = 3; }
                 state_variables { int n; }
                 transitions { any API init { n = n / K; } }",
            )
            .unwrap(),
        ));
        let before = r.get("p").unwrap().clone();
        let Err(ConstantError::Rejected { spec, error }) = r.set_constants("p", &[("K", 0)]) else {
            panic!("a zero divisor compiled");
        };
        assert_eq!(spec, "p");
        assert_eq!(error.msg, "transition 0: division by constant zero");
        // A refused override registers nothing.
        assert!(Arc::ptr_eq(r.get("p").unwrap(), &before));
    }

    #[test]
    fn keyword_identifier_diagnosed() {
        let e = compile(
            "protocol p; addressing ip;
             state_variables { int loop; }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("Rust keyword"), "{e}");
    }

    #[test]
    fn agent_field_names_diagnosed() {
        for (src, name) in [
            ("state_variables { int state; }", "state"),
            ("state_variables { node bootstrap; }", "bootstrap"),
            (
                "state_variables { int transitions_fired; }",
                "transitions_fired",
            ),
            ("state_variables { int __port; }", "__port"),
            ("state_variables { kid state; }", "state"),
            ("constants { bootstrap = 1; }", "bootstrap"),
        ] {
            let e = check(&format!(
                "protocol p; addressing ip; neighbor_types {{ kid 4 {{ }} }} {src}"
            ))
            .unwrap_err();
            assert_eq!(
                e.msg,
                format!(
                    "identifier '{name}' is reserved for a field every generated agent declares"
                ),
                "{src}"
            );
        }
    }

    #[test]
    fn neighbor_typed_scalar_diagnosed() {
        // The parser reads a neighbor-typed declaration as a list, so
        // only a spec built as an AST can hold a neighbor-typed scalar.
        let mut spec =
            crate::parse("protocol p; addressing ip; neighbor_types { kid 4 { } }").unwrap();
        spec.state_vars.push(crate::ast::StateVar::Scalar {
            ty: crate::ast::TypeName::Neighbor("kid".into()),
            name: "papa".into(),
        });
        let e = crate::IrSpec::lower(Arc::new(spec)).unwrap_err();
        assert_eq!(
            e.msg,
            "scalar state variable 'papa' of a neighbor type is not supported; declare it as a \
             neighbor list"
        );
    }

    #[test]
    fn layered_null_dest_without_key_field_diagnosed() {
        let e = compile(
            "protocol upper uses base; addressing hash;
             messages { hello { node who; } }
             transitions { any API init { hello(null, me); } }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("needs a key field"), "{e}");
    }

    #[test]
    fn payload_variable_compared_with_null_is_false() {
        const SRC: &str = "protocol p; addressing hash;
             state_variables { payload kept; bool empty; bool unset; }
             transitions { any API init { unset = kept == null; kept = null; empty = kept == null; } }";
        let ir = Arc::new(compile(SRC).unwrap());
        // Generated: a payload is never null.
        let code = codegen::generate(&ir, None);
        assert!(
            code.contains("self.unset = { let _ = self.kept.clone(); false };"),
            "{code}"
        );
        assert!(
            code.contains("self.empty = { let _ = self.kept.clone(); false };"),
            "{code}"
        );
        // Interpreted: the variable starts as, and is assigned `null` as,
        // the empty payload.
        use crate::interp::{InterpretedAgent, Value};
        use macedon_core::{Bytes, MacedonKey, NodeId, NullApp, SimRng, Stack, Time};
        let mut stack = Stack::new(
            NodeId(1),
            MacedonKey(1),
            vec![Box::new(InterpretedAgent::new(ir, None))],
            Box::new(NullApp),
            SimRng::new(1),
        );
        stack.init(Time::ZERO, &mut Vec::new());
        let a: &InterpretedAgent = stack.agent(0).as_any().downcast_ref().unwrap();
        assert_eq!(a.var("unset"), Some(Value::Bool(false)));
        assert_eq!(a.var("empty"), Some(Value::Bool(false)));
        assert_eq!(a.var("kept"), Some(Value::Bytes(Bytes::new())));
        // An unbound `payload` is null in both back ends.
        let code = codegen::generate(
            &compile(
                "protocol p; addressing hash;
                 state_variables { bool empty; }
                 transitions { any API init { empty = payload == null; } }",
            )
            .unwrap(),
            None,
        );
        assert!(code.contains("self.empty = true;"), "{code}");
    }

    #[test]
    fn type_errors_are_compile_errors() {
        let e = compile(
            "protocol p; addressing hash;
             state_variables { int n; bool b; }
             transitions { any API init { n = me; } }",
        )
        .unwrap_err();
        let e = e.to_string();
        assert!(e.contains("cannot assign node to 'n'"), "{e}");
        let e = compile(
            "protocol p; addressing hash;
             state_variables { int n; bool b; }
             transitions { any API init { b = digit(b, 0, 16) == 1; } }",
        )
        .unwrap_err();
        let e = e.to_string();
        assert!(e.contains("expected key, got bool"), "{e}");
    }

    #[test]
    fn an_ill_typed_construct_is_a_compile_error() {
        const ILL: &str = r#"
            protocol ill;
            addressing hash;
            transports { TCP C; }
            messages { C ping { } }
            state_variables { int n; int after; }
            transitions {
                any recv ping {
                    n = me;
                    after = 1;
                }
            }
        "#;
        let e = compile(ILL).unwrap_err();
        assert_eq!(
            e.msg,
            "transition 0: cannot assign node to 'n' of declared type int"
        );
        // The full text, position included.
        let e = compile(
            "protocol p; addressing hash; state_variables { int n; } \
             transitions { any API init { n = me; } }",
        )
        .unwrap_err();
        assert_eq!(
            e.to_string(),
            "0:0: transition 0: cannot assign node to 'n' of declared type int"
        );
    }

    #[test]
    fn all_nine_specs_lower_fully_typed() {
        // Lowering types every expression, so the interpreter evaluates
        // each at its static type, and a type error is a compile error:
        // every bundled spec compiles.
        for (name, src) in bundled_specs() {
            if let Err(e) = compile(src) {
                panic!("{name}: {e}");
            }
        }
        // The check sees a type error when there is one.
        let e = compile(
            "protocol ill; addressing hash;
             neighbor_types { peer 4 { } }
             state_variables { peer peers; bool b; }
             transitions { any API init { b = neighbor_query(peers, 5); } }",
        )
        .unwrap_err();
        assert!(
            e.msg.contains("neighbor_query needs a node, got int"),
            "{e}"
        );
    }
}
