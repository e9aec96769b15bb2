//! End-to-end CLI test on the motivating example's spec file: the tool
//! must reproduce the Section 2/4 story through its public commands.

use ermes_cli::{cmd_analyze, cmd_order, cmd_simulate, parse_spec};

fn motivating() -> ermes_cli::SystemSpec {
    let text = include_str!("../testdata/motivating.json");
    parse_spec(text).expect("testdata is valid")
}

#[test]
fn declared_order_is_live_but_suboptimal_on_the_testdata() {
    // The testdata declares channels in alphabetical order, which here is
    // live; analyze reports the exact cycle time.
    let spec = motivating();
    let out = cmd_analyze(&spec).expect("analyzes");
    assert!(out.contains("verdict: live"), "{out}");
}

#[test]
fn order_command_reaches_the_paper_optimum() {
    let spec = motivating();
    let (report, json) = cmd_order(&spec).expect("orders");
    assert!(report.contains("after : live, cycle time 12"), "{report}");
    // The emitted spec re-parses and re-analyzes to the same optimum.
    let reparsed = parse_spec(&json).expect("valid output");
    let out = cmd_analyze(&reparsed).expect("analyzes");
    assert!(out.contains("cycle time: 12 cycles"), "{out}");
}

#[test]
fn deadlocking_spec_is_diagnosed() {
    let mut spec = motivating();
    // Install the Section 2 deadlock ordering explicitly.
    spec.processes[1].put_order = Some(vec!["b".into(), "d".into(), "f".into()]);
    spec.processes[5].get_order = Some(vec!["g".into(), "d".into(), "e".into()]);
    let out = cmd_analyze(&spec).expect("analyzes");
    assert!(out.contains("DEADLOCK"), "{out}");
    assert!(out.contains("token-free cycle"), "{out}");
    // The witness block, transition names included, byte for byte.
    let witness = "token-free cycle (4 places):\n  ch[d] -> ch[f]\n  ch[f] -> L[P5]\n  \
                   L[P5] -> ch[g]\n  ch[g] -> ch[d]\n";
    assert!(out.ends_with(witness), "{out}");
    let sim = cmd_simulate(&spec, 20).expect("simulates");
    assert!(sim.contains("DEADLOCKED"), "{sim}");
}

#[test]
fn ordered_spec_simulates_at_the_analytic_rate() {
    let spec = motivating();
    let (_, json) = cmd_order(&spec).expect("orders");
    let ordered = parse_spec(&json).expect("valid output");
    let sim = cmd_simulate(&ordered, 300).expect("simulates");
    assert!(sim.contains("steady-state cycle time: 12.00"), "{sim}");
}
