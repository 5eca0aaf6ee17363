//! Cross-check harness for the reuse engine on the predecoded substrate
//! (predecode tables, straight-line trace blocks, one record filled in
//! place per observed step). The substrate must be *invisible*: the
//! engine's reuse decisions must reproduce the golden corpus
//! (`tests/golden/manifest.json`), and every run (collecting,
//! serving-only, valid-bit) on every workload, every replacement policy
//! and arbitrary valid programs must end in exactly the state plain
//! execution reaches after the same number of instructions.

use proptest::prelude::*;
use std::path::Path;
use tlr_core::{EngineConfig, Heuristic, ReplacementPolicy, RtmConfig, TraceReuseEngine};
use tlr_isa::{CollectSink, NullSink};
use tlr_vm::{StepResult, Vm};
use trace_reuse::asm::{assemble, Program};
use trace_reuse::persist::json::{self, Json};

const BUDGET: u64 = 60_000;

/// The plain VM's state digest after exactly `instrs` instructions.
fn plain_digest(prog: &Program, instrs: u64) -> u64 {
    let mut vm = Vm::new(prog);
    let outcome = vm.run_fast(instrs).expect("plain run");
    assert_eq!(outcome.executed(), instrs, "plain run stopped early");
    vm.state_digest()
}

/// Run `engine` for `budget` and require plain execution's state at the
/// engine's progress; returns the engine's final RTM contents.
fn run_against_plain_vm(
    label: &str,
    prog: &Program,
    mut engine: TraceReuseEngine,
    budget: u64,
) -> Option<tlr_core::RtmSnapshot> {
    let stats = engine
        .run(budget)
        .unwrap_or_else(|e| panic!("{label}: engine error: {e}"));
    assert_eq!(
        engine.vm().state_digest(),
        plain_digest(prog, stats.total()),
        "{label}: architectural state diverged from plain execution"
    );
    engine.export_rtm()
}

/// A golden-manifest digest, stored as a 16-digit hex string.
fn hex_field(obj: &Json, key: &str) -> u64 {
    let s = obj.field(key).unwrap().as_str(key).unwrap();
    u64::from_str_radix(s, 16).unwrap()
}

#[test]
fn fast_engine_matches_reference_on_every_workload() {
    // The reference is the golden corpus (decisions and state under the
    // pinned parameters) and plain execution (state, for the collecting,
    // serving-only and valid-bit engines alike).
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/manifest.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let pinned = doc.field("config").unwrap();
    let seed = pinned.field("seed").unwrap().as_u64("seed").unwrap();
    let budget = pinned.field("budget").unwrap().as_u64("budget").unwrap();
    let config = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
    for w in tlr_workloads::all() {
        let prog = w.program(seed);
        let golden = doc
            .field("entries")
            .and_then(|e| e.field(w.name))
            .and_then(|e| e.field("policies"))
            .and_then(|p| p.field(ReplacementPolicy::Lru.label()))
            .unwrap();
        let mut engine = TraceReuseEngine::new(&prog, config);
        engine.enable_tap_with_cap(usize::try_from(budget).unwrap());
        let stats = engine
            .run(budget)
            .unwrap_or_else(|e| panic!("{}: engine error: {e}", w.name));
        assert_eq!(
            engine.tap().unwrap().digest(),
            hex_field(golden, "decisions"),
            "{}: reuse decisions diverged from golden",
            w.name
        );
        assert_eq!(
            engine.vm().state_digest(),
            hex_field(golden, "state"),
            "{}: state diverged from golden",
            w.name
        );
        assert_eq!(
            engine.vm().state_digest(),
            plain_digest(&prog, stats.total()),
            "{}: state diverged from plain execution",
            w.name
        );

        let prog = w.program(13);
        let cold = TraceReuseEngine::new(&prog, config);
        let snapshot = run_against_plain_vm(w.name, &prog, cold, BUDGET).unwrap();
        let serve = TraceReuseEngine::new_warm(&prog, config, &snapshot).without_collection();
        run_against_plain_vm(&format!("{}/serve", w.name), &prog, serve, BUDGET);
        let valid_bit = TraceReuseEngine::new(&prog, config.with_valid_bit());
        run_against_plain_vm(&format!("{}/valid-bit", w.name), &prog, valid_bit, BUDGET);
    }
}

#[test]
fn fast_engine_matches_reference_across_policies() {
    // Policies change *which* traces survive eviction, so each policy is
    // its own decision stream; each must keep plain execution's state,
    // cold and served warm from its own export. Small RTM to force
    // evictions.
    for w in tlr_workloads::all() {
        let prog = w.program(29);
        for policy in ReplacementPolicy::ALL {
            let config =
                EngineConfig::paper(RtmConfig::RTM_512, Heuristic::FixedExp(4)).with_policy(policy);
            let label = format!("{} [{policy}]", w.name);
            let cold = TraceReuseEngine::new(&prog, config);
            let snapshot = run_against_plain_vm(&label, &prog, cold, BUDGET).unwrap();
            let serve = TraceReuseEngine::new_warm(&prog, config, &snapshot).without_collection();
            run_against_plain_vm(&format!("{label}/serve"), &prog, serve, BUDGET);
        }
    }
}

#[test]
fn run_records_match_fresh_step_records_on_every_workload() {
    // `Vm::run` refills one record per step; repeated `Vm::step` builds
    // a fresh one. Nothing of a previous step may survive the refill.
    for w in tlr_workloads::all() {
        let prog = w.program(13);
        let mut reused = Vm::new(&prog);
        let mut sink = CollectSink::default();
        reused.run(20_000, &mut sink).unwrap();
        let mut fresh = Vm::new(&prog);
        for (n, got) in sink.records.iter().enumerate() {
            let StepResult::Executed(want) = fresh.step().unwrap() else {
                panic!("{}: fresh steps halted before record {n}", w.name);
            };
            assert_eq!(got.pc, want.pc, "{} record {n}: pc", w.name);
            assert_eq!(got.next_pc, want.next_pc, "{} record {n}: next_pc", w.name);
            assert_eq!(got.class, want.class, "{} record {n}: class", w.name);
            assert_eq!(
                got.reads.as_slice(),
                want.reads.as_slice(),
                "{} record {n}: reads",
                w.name
            );
            assert_eq!(
                got.writes.as_slice(),
                want.writes.as_slice(),
                "{} record {n}: writes",
                w.name
            );
        }
        assert_eq!(reused.state_digest(), fresh.state_digest(), "{}", w.name);
    }
}

/// One random but always-valid instruction, rendered as assembly. Every
/// line carries a label so branch targets generated as `imm % (n + 1)`
/// always resolve (index `n` is the trailing `halt`).
fn render_instr(
    i: usize,
    n: usize,
    (kind, a, b, c, disp, imm): (u8, u8, u8, u8, u64, u16),
) -> String {
    let target = (imm as usize) % (n + 1);
    let body = match kind {
        0 => format!("addq r{a}, r{b}, r{c}"),
        1 => format!("subq r{a}, r{b}, r{c}"),
        2 => format!("mulq r{a}, r{b}, r{c}"),
        3 => format!("and r{a}, r{b}, r{c}"),
        4 => format!("xor r{a}, r{b}, r{c}"),
        5 => format!("addq r{a}, r{b}, {imm}"),
        6 => format!("li r{a}, {imm}"),
        7 => format!("ldq r{a}, {disp}(r{b})"),
        8 => format!("stq r{a}, {disp}(r{b})"),
        9 => format!("beqz r{a}, L{target}"),
        10 => format!("bnez r{a}, L{target}"),
        11 => format!("addt f{a}, f{b}, f{c}"),
        12 => format!("itof f{a}, r{b}"),
        13 => format!("cmplt r{a}, r{b}, r{c}"),
        _ => "nop".to_string(),
    };
    format!("L{i}: {body}\n")
}

fn arb_program() -> impl Strategy<Value = String> {
    let instr = (0u8..15, 1u8..10, 1u8..10, 1u8..10, 0u64..64, any::<u16>());
    proptest::collection::vec(instr, 8..60).prop_map(|instrs| {
        let n = instrs.len();
        let mut text = String::new();
        for (i, spec) in instrs.into_iter().enumerate() {
            text.push_str(&render_instr(i, n, spec));
        }
        text.push_str(&format!("L{n}: halt\n"));
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Predecoded execution is the interpreter: same final state, same
    /// instruction count, on arbitrary valid programs (including ones
    /// that loop forever and exhaust the budget).
    #[test]
    fn predecoded_vm_matches_observing_vm(source in arb_program()) {
        let prog = assemble(&source).expect("generated programs are valid");
        let mut observed = Vm::new(&prog);
        observed.run(5_000, &mut NullSink).expect("observing run");
        let mut fast = Vm::new(&prog);
        fast.run_fast(5_000).expect("fast run");
        prop_assert_eq!(observed.executed(), fast.executed());
        prop_assert_eq!(observed.state_digest(), fast.state_digest());
    }

    /// The engine is plain execution, on arbitrary valid programs under
    /// all three replacement policies, collecting and serving warm, and
    /// under the valid-bit reuse test.
    #[test]
    fn fast_engine_matches_reference_on_random_programs(source in arb_program()) {
        let prog = assemble(&source).expect("generated programs are valid");
        for policy in ReplacementPolicy::ALL {
            let config = EngineConfig::paper(RtmConfig::RTM_512, Heuristic::FixedExp(2))
                .with_policy(policy);
            let label = policy.to_string();
            let cold = TraceReuseEngine::new(&prog, config);
            let snapshot = run_against_plain_vm(&label, &prog, cold, 5_000).unwrap();
            let serve = TraceReuseEngine::new_warm(&prog, config, &snapshot).without_collection();
            run_against_plain_vm(&label, &prog, serve, 5_000);
        }
        let config = EngineConfig::paper(RtmConfig::RTM_512, Heuristic::FixedExp(2));
        let valid_bit = TraceReuseEngine::new(&prog, config.with_valid_bit());
        run_against_plain_vm("valid-bit", &prog, valid_bit, 5_000);
    }
}
