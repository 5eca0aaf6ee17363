//! The execution-driven trace-reuse engine (§3.3 + §4.6).
//!
//! This is the "realistic" machine of Figure 9: a functional processor
//! front-end that, at every fetch point, first consults the RTM. On a hit
//! — a resident trace starting at the current PC whose recorded live-in
//! values all equal the current architectural values — the processor
//! *skips* the trace: its recorded outputs are applied to the register
//! file and memory, the PC jumps to the trace's next-PC, and none of the
//! covered instructions are fetched or executed. On a miss, one
//! instruction executes normally and is offered to the trace collector.
//!
//! Correctness of the skip is a theorem of the deterministic ISA: every
//! value a trace reads is either produced inside the trace or captured in
//! its live-in set, so matching live-ins imply identical execution. The
//! engine (optionally) verifies this wholesale: a run with reuse enabled
//! must leave the same architectural state as a plain run
//! (`tests/engine_equivalence.rs`, `tests/fast_engine.rs`).
//!
//! There is one engine, [`TraceReuseEngine`], on the predecoded
//! substrate: value-comparison hits are probed and applied as cached
//! straight-line trace blocks, and a miss fills one engine-owned
//! [`DynInstr`] in place for the collector ([`Vm::step_into`]) — or,
//! with collection detached, builds no record at all.

use crate::collect::{CollectStats, Collector, Heuristic};
use crate::ilr::FiniteIlrBuffer;
use crate::policy::ReplacementPolicy;
use crate::rtm::{ReuseBackend, ReuseTraceMemory, RtmConfig, RtmSnapshot, RtmStats};
use crate::trace::{IoCaps, TraceRecord};
use crate::valid_bit::InvalidatingRtm;
use tlr_asm::Program;
use tlr_isa::DynInstr;
use tlr_stats::Histogram;
use tlr_vm::{FastStep, Vm, VmError};

/// Which reuse test the engine uses (§3.3 describes both).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReuseTest {
    /// Read all input locations and compare against recorded values (the
    /// mechanism the paper evaluates).
    #[default]
    ValueCompare,
    /// Valid bit + invalidation on every architectural write — simpler
    /// test, conservative coverage.
    ValidBit,
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// RTM geometry.
    pub rtm: RtmConfig,
    /// Trace-collection heuristic.
    pub heuristic: Heuristic,
    /// Per-trace I/O caps (the paper uses [`IoCaps::PAPER`]).
    pub caps: IoCaps,
    /// Reuse-test mechanism.
    pub reuse_test: ReuseTest,
    /// RTM replacement policy (the paper hard-wires
    /// [`ReplacementPolicy::Lru`]). Ignored by the valid-bit backend,
    /// which has its own invalid-first reclamation.
    pub policy: ReplacementPolicy,
    /// Aging half-life (in RTM ticks) for [`ReplacementPolicy::Lfu`]
    /// victim selection; [`crate::policy::LFU_HALF_LIFE`] by default.
    /// Other policies ignore it.
    pub lfu_half_life: u64,
}

impl EngineConfig {
    /// Figure 9's default: paper caps, value-comparison reuse test, LRU
    /// replacement, caller-chosen RTM and heuristic.
    pub fn paper(rtm: RtmConfig, heuristic: Heuristic) -> Self {
        Self {
            rtm,
            heuristic,
            caps: IoCaps::PAPER,
            reuse_test: ReuseTest::ValueCompare,
            policy: ReplacementPolicy::Lru,
            lfu_half_life: crate::policy::LFU_HALF_LIFE,
        }
    }

    /// Same configuration with the valid-bit reuse test.
    pub fn with_valid_bit(mut self) -> Self {
        self.reuse_test = ReuseTest::ValidBit;
        self
    }

    /// Same configuration under a different RTM replacement policy.
    pub fn with_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Same configuration under a different LFU aging half-life (the
    /// `--lfu-half-life` knob).
    pub fn with_lfu_half_life(mut self, half_life: u64) -> Self {
        self.lfu_half_life = half_life;
        self
    }
}

/// One engine-level reuse decision, as recorded by the engine tap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReuseEvent {
    /// The RTM answered the fetch at `pc`: `len` instructions were
    /// skipped and control moved to `next_pc`.
    Hit {
        /// Fetch PC the reuse test answered.
        pc: u32,
        /// Dynamic instructions the reused trace covered.
        len: u32,
        /// Where control resumed.
        next_pc: u32,
        /// Per-class histogram of the skipped instructions. May total
        /// less than `len` when the trace came from a snapshot written
        /// before mixes existed; the shortfall is *unattributed*.
        mix: tlr_isa::ClassMix,
    },
    /// The reuse test missed at `pc` and one instruction executed.
    Exec {
        /// Fetch PC that executed normally.
        pc: u32,
        /// Class of the executed instruction.
        class: tlr_isa::OpClass,
    },
}

/// The engine-level tap: an ordered record of every reuse decision the
/// engine took. Where `tlr-persist`'s record mode taps the functional
/// VM (validating *what* executed), this validates the *engine*: two
/// runs under the same configuration must take identical decisions, and
/// a warm start must change them only by hitting earlier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionLog {
    /// Every decision, in fetch order (oldest first; recording stops at
    /// the cap, see [`DecisionLog::dropped`]).
    pub events: Vec<ReuseEvent>,
    /// Decisions *not* recorded because the cap was reached. The digest
    /// covers this count, so a truncated log never silently matches a
    /// complete one of the same prefix.
    pub dropped: u64,
    /// Maximum events retained ([`usize::MAX`] = unbounded).
    cap: usize,
}

impl Default for DecisionLog {
    fn default() -> Self {
        Self::new()
    }
}

impl DecisionLog {
    /// An unbounded log.
    pub fn new() -> Self {
        Self::with_cap(usize::MAX)
    }

    /// A log that retains at most `cap` events; further decisions are
    /// counted in [`DecisionLog::dropped`] instead of growing the
    /// buffer, so tapping a long run cannot exhaust memory.
    pub fn with_cap(cap: usize) -> Self {
        Self {
            events: Vec::new(),
            dropped: 0,
            cap,
        }
    }

    /// Record one decision, honouring the cap.
    pub fn push(&mut self, event: ReuseEvent) {
        if self.events.len() < self.cap {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// Number of decisions recorded (excluding dropped ones).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Order-sensitive digest of the decision stream — cheap equality
    /// for replay validation without retaining two full logs.
    pub fn digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = tlr_util::fxhash::FxHasher64::new();
        self.events.len().hash(&mut h);
        for event in &self.events {
            event.hash(&mut h);
        }
        self.dropped.hash(&mut h);
        h.finish()
    }
}

/// What a run of the engine produced. `PartialEq` compares every counter
/// and the full reused-size histogram, so two runs that took the same
/// decisions compare equal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineStats {
    /// Instructions the VM actually executed.
    pub executed: u64,
    /// Instructions covered by reuse hits (never fetched).
    pub skipped: u64,
    /// Number of reuse operations (RTM hits taken).
    pub reuse_ops: u64,
    /// Whether the program ran to its `halt`.
    pub halted: bool,
    /// RTM behaviour counters.
    pub rtm: RtmStats,
    /// Collector counters.
    pub collect: CollectStats,
    /// Distribution of reused trace lengths.
    pub reused_sizes: Histogram,
}

impl EngineStats {
    /// Total dynamic instructions the program made progress by
    /// (executed + skipped).
    pub fn total(&self) -> u64 {
        self.executed + self.skipped
    }

    /// Figure 9a's metric: % of dynamic instructions whose execution was
    /// skipped through trace reuse.
    pub fn pct_reused(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            100.0 * self.skipped as f64 / self.total() as f64
        }
    }

    /// Figure 9b's metric: average size of a *reused* trace.
    pub fn avg_reused_trace_size(&self) -> f64 {
        if self.reuse_ops == 0 {
            0.0
        } else {
            self.skipped as f64 / self.reuse_ops as f64
        }
    }
}

/// The reuse-test mechanism behind the engine.
enum Backend {
    /// The value-comparison RTM; hits are served as straight-line
    /// [`crate::block::TraceBlock`]s ([`ReuseTraceMemory::lookup_fast`]).
    Value(ReuseTraceMemory),
    /// The §3.3 valid-bit memory, notified of every architectural write.
    ValidBit(InvalidatingRtm),
}

impl Backend {
    fn as_dyn(&self) -> &dyn ReuseBackend {
        match self {
            Backend::Value(rtm) => rtm,
            Backend::ValidBit(rtm) => rtm,
        }
    }

    fn insert(&mut self, rec: TraceRecord, vm: &Vm) {
        match self {
            Backend::Value(rtm) => rtm.insert(rec),
            Backend::ValidBit(rtm) => rtm.insert(rec, &|loc| vm.peek_loc(loc)),
        }
    }
}

/// The execution-driven reuse engine: VM + RTM backend + collector.
///
/// One engine serves every configuration. A value-comparison hit is
/// probed and applied through the entry's cached trace block; a miss
/// executes one instruction through [`Vm::step_into`], which fills the
/// engine-owned record the collector reads, so no per-instruction record
/// is built by value. A serving-only engine
/// ([`TraceReuseEngine::without_collection`]) needs no record and runs
/// misses on [`Vm::step_fast`]. The valid-bit backend additionally sees
/// every architectural write of the same step; only it pays for that.
pub struct TraceReuseEngine {
    vm: Vm,
    rtm: Backend,
    /// `None` once [`TraceReuseEngine::without_collection`] detached it.
    collector: Option<Collector>,
    /// The record every observed step refills in place.
    rec: DynInstr,
    executed: u64,
    skipped: u64,
    reuse_ops: u64,
    halted: bool,
    reused_sizes: Histogram,
    /// Engine-level decision tap, recording when enabled.
    tap: Option<DecisionLog>,
}

impl TraceReuseEngine {
    /// Load `program` under `config`. The ILR-driven heuristics get a
    /// finite ILR buffer with the RTM's geometry ("this memory has as
    /// many entries as the RTM", §4.6).
    pub fn new(program: &Program, config: EngineConfig) -> Self {
        let ilr = match config.heuristic {
            Heuristic::IlrNe | Heuristic::IlrExp => Some(FiniteIlrBuffer::new(config.rtm.geometry)),
            Heuristic::FixedExp(_) | Heuristic::BasicBlock => None,
        };
        let rtm = match config.reuse_test {
            ReuseTest::ValueCompare => Backend::Value(
                ReuseTraceMemory::new_with(config.rtm, config.policy)
                    .with_lfu_half_life(config.lfu_half_life),
            ),
            ReuseTest::ValidBit => Backend::ValidBit(InvalidatingRtm::new(config.rtm.geometry)),
        };
        Self {
            vm: Vm::new(program),
            rtm,
            collector: Some(Collector::new(config.heuristic, config.caps, ilr)),
            rec: DynInstr::default(),
            executed: 0,
            skipped: 0,
            reuse_ops: 0,
            halted: false,
            reused_sizes: Histogram::new(),
            tap: None,
        }
    }

    /// Like [`TraceReuseEngine::new`], but seed the RTM from a prior
    /// run's [`RtmSnapshot`] so the engine starts warm instead of paying
    /// the full cold-start trace-collection cost.
    ///
    /// The snapshot's geometry overrides `config.rtm`, and the backend is
    /// always the value-comparison RTM (valid-bit state cannot be
    /// persisted — see [`ReuseBackend::snapshot`]).
    pub fn new_warm(program: &Program, config: EngineConfig, snapshot: &RtmSnapshot) -> Self {
        let mut engine = Self::new(
            program,
            EngineConfig {
                rtm: snapshot.config,
                reuse_test: ReuseTest::ValueCompare,
                ..config
            },
        );
        engine.rtm = Backend::Value(
            ReuseTraceMemory::import_with(snapshot, config.policy)
                .with_lfu_half_life(config.lfu_half_life),
        );
        engine
    }

    /// Detach the collector: the engine only *serves* resident traces
    /// (warm-start / registry scenarios) and never inserts new ones, so
    /// under the value-comparison test no step builds a record and the
    /// miss path is allocation-free. Collector counters read zero.
    pub fn without_collection(mut self) -> Self {
        self.collector = None;
        self
    }

    /// Access the VM (state inspection in tests).
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Start recording every reuse decision into a [`DecisionLog`]
    /// (replaces any previous log). Costs one event per engine step, so
    /// enable it for validation runs, not for long sweeps.
    pub fn enable_tap(&mut self) {
        self.tap = Some(DecisionLog::new());
    }

    /// Like [`enable_tap`](TraceReuseEngine::enable_tap), but the log
    /// retains at most `cap` events (the rest are counted as dropped) —
    /// use this to tap arbitrarily long runs with bounded memory.
    pub fn enable_tap_with_cap(&mut self, cap: usize) {
        self.tap = Some(DecisionLog::with_cap(cap));
    }

    /// The decision log so far, if the tap is enabled.
    pub fn tap(&self) -> Option<&DecisionLog> {
        self.tap.as_ref()
    }

    /// Detach and return the decision log, disabling the tap.
    pub fn take_tap(&mut self) -> Option<DecisionLog> {
        self.tap.take()
    }

    /// Stamp `run` into the provenance of traces collected from here on
    /// ([`crate::policy::TraceMeta::source_run`]). No-op for the
    /// valid-bit backend.
    pub fn set_source_run(&mut self, run: u64) {
        if let Backend::Value(rtm) = &mut self.rtm {
            rtm.set_source_run(run);
        }
    }

    /// Export the RTM's resident traces for persistence (warm-starting a
    /// later run). `None` for the valid-bit backend.
    pub fn export_rtm(&self) -> Option<RtmSnapshot> {
        self.rtm.as_dyn().snapshot()
    }

    /// Access the RTM backend.
    pub fn rtm(&self) -> &dyn ReuseBackend {
        self.rtm.as_dyn()
    }

    /// Run until `halt` or until `budget` total dynamic instructions
    /// (executed + skipped) have been accounted. Incremental calls
    /// continue where the previous one stopped (the batch scheduler
    /// round-robins engines by calling this with growing budgets).
    pub fn run(&mut self, budget: u64) -> Result<EngineStats, VmError> {
        while self.executed + self.skipped < budget && !self.halted {
            self.step()?;
        }
        Ok(self.stats())
    }

    fn log(&mut self, event: ReuseEvent) {
        if let Some(tap) = self.tap.as_mut() {
            tap.push(event);
        }
    }

    /// One engine step: a reuse hit (skipping a whole trace) or one
    /// executed instruction.
    pub fn step(&mut self) -> Result<(), VmError> {
        let pc = self.vm.pc();
        // On a hit the trace is applied and offered to the collector
        // here, inside the backend's borrow; bookkeeping follows.
        let hit = match &mut self.rtm {
            Backend::Value(rtm) => match rtm.lookup_fast(pc, &mut self.vm)? {
                Some(hit) => {
                    let (len, next_pc, mix) = (hit.len, hit.next_pc, hit.mix);
                    if let Some(collector) = self.collector.as_mut() {
                        for rec in collector.on_reuse_hit(hit.rec) {
                            rtm.insert(rec);
                        }
                    }
                    Some((len, next_pc, mix))
                }
                None => None,
            },
            Backend::ValidBit(rtm) => {
                let vm = &self.vm;
                match rtm.lookup(pc, &|loc| vm.peek_loc(loc)) {
                    Some(hit) => {
                        self.vm.apply_trace(hit.outs.iter().copied(), hit.next_pc)?;
                        // The trace's outputs are architectural writes.
                        for &(loc, _) in hit.outs.iter() {
                            rtm.on_write(loc);
                        }
                        if let Some(collector) = self.collector.as_mut() {
                            let vm = &self.vm;
                            for rec in collector.on_reuse_hit(&hit) {
                                rtm.insert(rec, &|loc| vm.peek_loc(loc));
                            }
                        }
                        Some((hit.len, hit.next_pc, hit.mix))
                    }
                    None => None,
                }
            }
        };
        if let Some((len, next_pc, mix)) = hit {
            self.skipped += len as u64;
            self.reuse_ops += 1;
            self.reused_sizes.record(len as u64);
            self.log(ReuseEvent::Hit {
                pc,
                len,
                next_pc,
                mix,
            });
            return Ok(());
        }

        let valid_bit = matches!(self.rtm, Backend::ValidBit(_));
        if self.collector.is_none() && !valid_bit {
            // Nothing reads the record: execute without building one.
            match self.vm.step_fast()? {
                FastStep::Executed(class) => {
                    self.executed += 1;
                    self.log(ReuseEvent::Exec { pc, class });
                }
                FastStep::Halted => self.halted = true,
            }
            return Ok(());
        }
        if !self.vm.step_into(&mut self.rec)? {
            self.halted = true;
            return Ok(());
        }
        self.executed += 1;
        self.log(ReuseEvent::Exec {
            pc,
            class: self.rec.class,
        });
        if let Backend::ValidBit(rtm) = &mut self.rtm {
            for &(loc, _) in self.rec.writes.iter() {
                rtm.on_write(loc);
            }
        }
        if let Some(collector) = self.collector.as_mut() {
            for rec in collector.on_executed(&self.rec) {
                self.rtm.insert(rec, &self.vm);
            }
        }
        Ok(())
    }

    /// Statistics snapshot. Collector counters are zero when collection
    /// is detached.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            executed: self.executed,
            skipped: self.skipped,
            reuse_ops: self.reuse_ops,
            halted: self.halted,
            rtm: self.rtm.as_dyn().stats(),
            collect: self
                .collector
                .as_ref()
                .map(Collector::stats)
                .unwrap_or_default(),
            reused_sizes: self.reused_sizes.clone(),
        }
    }
}

/// Convenience: run `program` under `config` for `budget` instructions.
pub fn run_engine(
    program: &Program,
    config: EngineConfig,
    budget: u64,
) -> Result<EngineStats, VmError> {
    TraceReuseEngine::new(program, config).run(budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_asm::assemble;
    use tlr_isa::{Loc, NullSink};

    /// A tight loop recomputing identical values: ideal for reuse.
    const HOT_LOOP: &str = r#"
            .org 0x80
    tab:    .word 2, 4, 6, 8
            li      r9, 300
    outer:  li      r1, tab
            li      r2, 4
            li      r5, 0
    inner:  ldq     r3, 0(r1)
            addq    r5, r5, r3
            addq    r1, r1, 1
            subq    r2, r2, 1
            bnez    r2, inner
            stq     r5, 64(zero)
            subq    r9, r9, 1
            bnez    r9, outer
            halt
    "#;

    #[test]
    fn fixed_heuristic_reuses_hot_loop() {
        let prog = assemble(HOT_LOOP).unwrap();
        let mut engine = TraceReuseEngine::new(
            &prog,
            EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4)),
        );
        let stats = engine.run(1_000_000).unwrap();
        assert!(stats.halted);
        assert!(stats.reuse_ops > 0, "no reuse at all");
        assert!(
            stats.pct_reused() > 30.0,
            "pct_reused = {}",
            stats.pct_reused()
        );
    }

    #[test]
    fn reuse_preserves_architectural_state() {
        let prog = assemble(HOT_LOOP).unwrap();
        // Plain run.
        let mut plain = tlr_vm::Vm::new(&prog);
        plain.run(1_000_000, &mut NullSink).unwrap();
        let expect = plain.peek_loc(Loc::Mem(64));

        for heuristic in [
            Heuristic::IlrNe,
            Heuristic::IlrExp,
            Heuristic::FixedExp(2),
            Heuristic::FixedExp(6),
        ] {
            let mut engine =
                TraceReuseEngine::new(&prog, EngineConfig::paper(RtmConfig::RTM_512, heuristic));
            let stats = engine.run(1_000_000).unwrap();
            assert!(stats.halted, "{heuristic:?} did not finish");
            assert_eq!(
                engine.vm().peek_loc(Loc::Mem(64)),
                expect,
                "{heuristic:?} corrupted state"
            );
            // Progress accounting matches the plain run exactly.
            assert_eq!(stats.total(), plain.executed(), "{heuristic:?}");
        }
    }

    #[test]
    fn ilr_heuristics_reuse_after_warmup() {
        let prog = assemble(HOT_LOOP).unwrap();
        let mut engine = TraceReuseEngine::new(
            &prog,
            EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::IlrExp),
        );
        let stats = engine.run(1_000_000).unwrap();
        assert!(stats.reuse_ops > 0);
        assert!(stats.pct_reused() > 20.0, "pct = {}", stats.pct_reused());
    }

    #[test]
    fn expansion_grows_reused_traces() {
        let prog = assemble(HOT_LOOP).unwrap();
        let small = TraceReuseEngine::new(
            &prog,
            EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(2)),
        )
        .run(1_000_000)
        .unwrap();
        // With expansion, average reused trace size should exceed the
        // base length 2 eventually.
        assert!(
            small.avg_reused_trace_size() > 2.0,
            "avg = {}",
            small.avg_reused_trace_size()
        );
        assert!(small.collect.expansions > 0);
    }

    #[test]
    fn bigger_rtm_reuses_no_less() {
        let prog = assemble(HOT_LOOP).unwrap();
        let mut results = Vec::new();
        for rtm in [RtmConfig::RTM_512, RtmConfig::RTM_4K] {
            let stats =
                TraceReuseEngine::new(&prog, EngineConfig::paper(rtm, Heuristic::FixedExp(4)))
                    .run(1_000_000)
                    .unwrap();
            results.push(stats.pct_reused());
        }
        // This program's working set fits even the small RTM, so both
        // should reuse; the larger must not do worse by more than noise.
        assert!(results[1] >= results[0] - 1.0, "{results:?}");
    }

    #[test]
    fn warm_start_never_reuses_less_and_preserves_state() {
        let prog = assemble(HOT_LOOP).unwrap();
        let config = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        let mut cold = TraceReuseEngine::new(&prog, config);
        let cold_stats = cold.run(1_000_000).unwrap();
        let snapshot = cold.export_rtm().expect("value-compare RTM snapshots");
        assert!(!snapshot.is_empty());

        let mut warm = TraceReuseEngine::new_warm(&prog, config, &snapshot);
        let warm_stats = warm.run(1_000_000).unwrap();
        assert!(warm_stats.halted);
        assert!(
            warm_stats.pct_reused() >= cold_stats.pct_reused(),
            "warm {} < cold {}",
            warm_stats.pct_reused(),
            cold_stats.pct_reused()
        );
        assert_eq!(
            warm.vm().peek_loc(Loc::Mem(64)),
            cold.vm().peek_loc(Loc::Mem(64)),
            "warm start corrupted architectural state"
        );
    }

    #[test]
    fn tap_records_identical_decisions_across_identical_runs() {
        let prog = assemble(HOT_LOOP).unwrap();
        let config = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        let run = || {
            let mut engine = TraceReuseEngine::new(&prog, config);
            engine.enable_tap();
            engine.run(100_000).unwrap();
            engine.take_tap().expect("tap enabled")
        };
        let (first, second) = (run(), run());
        assert!(!first.is_empty());
        assert_eq!(first.digest(), second.digest());
        assert_eq!(first, second, "engine decisions are not deterministic");
        // The log accounts for every step: hits carry trace lengths,
        // execs one instruction each.
        let (mut skipped, mut executed) = (0u64, 0u64);
        let mut mix_total = 0u64;
        for event in &first.events {
            match event {
                ReuseEvent::Hit { len, mix, .. } => {
                    skipped += *len as u64;
                    mix_total += mix.total();
                }
                ReuseEvent::Exec { .. } => executed += 1,
            }
        }
        let stats = TraceReuseEngine::new(&prog, config).run(100_000).unwrap();
        assert_eq!(skipped, stats.skipped);
        assert_eq!(executed, stats.executed);
        // Cold-run traces are collected with full mixes, so every hit is
        // fully attributed by instruction class.
        assert_eq!(mix_total, stats.skipped, "unattributed skips in a cold run");
    }

    #[test]
    fn tap_cap_bounds_memory_and_digest_sees_truncation() {
        let prog = assemble(HOT_LOOP).unwrap();
        let config = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        let mut engine = TraceReuseEngine::new(&prog, config);
        engine.enable_tap_with_cap(100);
        engine.run(100_000).unwrap();
        let capped = engine.take_tap().unwrap();
        assert_eq!(capped.len(), 100);
        assert!(capped.dropped > 0, "the run surely took > 100 decisions");

        let mut full_engine = TraceReuseEngine::new(&prog, config);
        full_engine.enable_tap();
        full_engine.run(100_000).unwrap();
        let full = full_engine.take_tap().unwrap();
        assert_eq!(full.dropped, 0);
        assert_eq!(
            capped.events[..],
            full.events[..100],
            "the cap must truncate, not alter, the stream"
        );
        // Same prefix, but the digest must still distinguish them.
        assert_ne!(capped.digest(), full.digest());
        let mut prefix = DecisionLog::new();
        for e in &full.events[..100] {
            prefix.push(*e);
        }
        assert_ne!(
            capped.digest(),
            prefix.digest(),
            "dropped count is digested"
        );
    }

    #[test]
    fn tap_digest_replays_identically_under_every_policy() {
        // The engine-level replay oracle, exercised across all three
        // stock policies plus the measured cost-benefit variant: same
        // program + config ⇒ bit-identical decision streams.
        let prog = assemble(HOT_LOOP).unwrap();
        let mut weights_table = [1u16; tlr_isa::OpClass::COUNT];
        weights_table[tlr_isa::OpClass::Load.index()] = 2;
        let mut policies = crate::policy::ReplacementPolicy::ALL.to_vec();
        policies.push(ReplacementPolicy::CostBenefitMeasured(
            crate::policy::ClassWeights::from_table(weights_table),
        ));
        for policy in policies {
            let run = || {
                let mut engine = TraceReuseEngine::new(
                    &prog,
                    EngineConfig::paper(RtmConfig::RTM_512, Heuristic::FixedExp(4))
                        .with_policy(policy),
                );
                engine.enable_tap();
                let stats = engine.run(60_000).unwrap();
                (engine.take_tap().unwrap(), stats)
            };
            let ((first, stats), (second, _)) = (run(), run());
            assert!(!first.is_empty(), "{policy}");
            assert_eq!(first.digest(), second.digest(), "{policy}");
            assert_eq!(first, second, "{policy}: decisions not deterministic");
            // The log reconstructs the run's totals exactly.
            let (mut skipped, mut executed) = (0u64, 0u64);
            for event in &first.events {
                match event {
                    ReuseEvent::Hit { len, .. } => skipped += u64::from(*len),
                    ReuseEvent::Exec { .. } => executed += 1,
                }
            }
            assert_eq!(skipped, stats.skipped, "{policy}");
            assert_eq!(executed, stats.executed, "{policy}");
        }
    }

    #[test]
    fn lfu_half_life_knob_reaches_the_rtm() {
        // A maximally forgetful half-life must change LFU victim choices
        // on some workload/geometry; at minimum the config plumbs through
        // and runs stay architecturally correct.
        let prog = assemble(HOT_LOOP).unwrap();
        let mut plain = tlr_vm::Vm::new(&prog);
        plain.run(1_000_000, &mut NullSink).unwrap();
        let expect = plain.peek_loc(Loc::Mem(64));
        for half_life in [1u64, 64, crate::policy::LFU_HALF_LIFE, u64::MAX] {
            let config = EngineConfig::paper(RtmConfig::RTM_512, Heuristic::FixedExp(4))
                .with_policy(ReplacementPolicy::Lfu)
                .with_lfu_half_life(half_life);
            assert_eq!(config.lfu_half_life, half_life);
            let mut engine = TraceReuseEngine::new(&prog, config);
            let stats = engine.run(1_000_000).unwrap();
            assert!(stats.halted, "half_life={half_life}");
            assert_eq!(
                engine.vm().peek_loc(Loc::Mem(64)),
                expect,
                "half_life={half_life} corrupted state"
            );
        }
    }

    #[test]
    fn tap_distinguishes_warm_from_cold_runs() {
        let prog = assemble(HOT_LOOP).unwrap();
        let config = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        let mut cold = TraceReuseEngine::new(&prog, config);
        cold.enable_tap();
        cold.run(1_000_000).unwrap();
        let cold_log = cold.take_tap().unwrap();
        let snapshot = cold.export_rtm().unwrap();

        let mut warm = TraceReuseEngine::new_warm(&prog, config, &snapshot);
        warm.enable_tap();
        warm.run(1_000_000).unwrap();
        let warm_log = warm.take_tap().unwrap();
        assert_ne!(
            cold_log.digest(),
            warm_log.digest(),
            "a warm start must hit earlier than its cold run"
        );
    }

    #[test]
    fn every_policy_preserves_architectural_state() {
        let prog = assemble(HOT_LOOP).unwrap();
        let mut plain = tlr_vm::Vm::new(&prog);
        plain.run(1_000_000, &mut NullSink).unwrap();
        let expect = plain.peek_loc(Loc::Mem(64));

        for policy in crate::policy::ReplacementPolicy::ALL {
            let config =
                EngineConfig::paper(RtmConfig::RTM_512, Heuristic::FixedExp(4)).with_policy(policy);
            let mut engine = TraceReuseEngine::new(&prog, config);
            let stats = engine.run(1_000_000).unwrap();
            assert!(stats.halted, "{policy}: did not finish");
            assert!(stats.reuse_ops > 0, "{policy}: no reuse at all");
            assert_eq!(
                engine.vm().peek_loc(Loc::Mem(64)),
                expect,
                "{policy} corrupted state"
            );
            assert_eq!(stats.total(), plain.executed(), "{policy}");
        }
    }

    #[test]
    fn serving_only_engine_hits_without_collecting() {
        let prog = assemble(HOT_LOOP).unwrap();
        let config = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        // Learn traces with a collecting run, then serve them cold.
        let mut teacher = TraceReuseEngine::new(&prog, config);
        teacher.run(100_000).unwrap();
        let snapshot = teacher.export_rtm().unwrap();
        assert!(!snapshot.is_empty());

        let mut server = TraceReuseEngine::new_warm(&prog, config, &snapshot).without_collection();
        let stats = server.run(100_000).unwrap();
        assert!(stats.halted);
        assert!(stats.skipped > 0, "warm RTM must serve hits");
        assert_eq!(stats.rtm.stores, 0, "serving-only engine never inserts");
        assert_eq!(stats.collect.collected, 0);
        // Architectural result identical to plain execution.
        let mut plain = tlr_vm::Vm::new(&prog);
        plain.run_fast(u64::MAX).unwrap();
        assert_eq!(server.vm().state_digest(), plain.state_digest());
    }

    #[test]
    fn valid_bit_engine_invalidates_after_collection_is_detached() {
        // A valid-bit entry stays valid only while every write reaches
        // the backend, so a serving-only valid-bit engine must keep
        // observing writes. Here the four-instruction trace starting at
        // the `bnez` reads r1 without writing it; it is stored valid and
        // dies at the `subq` four instructions later. The engine is
        // detached just after storing it: were the `subq` unobserved,
        // the trace would be served with a stale r1, and at r1 = 0 it
        // would jump back into the loop instead of reaching `halt`.
        let prog = assemble(
            r#"
            li      r1, 300
    outer:  addq    r2, r1, 10
            addq    r3, r2, r2
            stq     r3, 64(r1)
            nop
            nop
            nop
            subq    r1, r1, 1
            bnez    r1, outer
            halt
            "#,
        )
        .unwrap();
        let config =
            EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4)).with_valid_bit();
        let mut engine = TraceReuseEngine::new(&prog, config);
        // Traces cover stream positions [4k, 4k + 3]; the one starting at
        // iteration 100's `bnez` ends at position 811.
        engine.run(812).unwrap();
        let mut engine = engine.without_collection();
        let stats = engine.run(1_000_000).unwrap();
        assert!(stats.halted, "a stale trace kept the loop running");
        let mut plain = tlr_vm::Vm::new(&prog);
        plain.run_fast(u64::MAX).unwrap();
        assert_eq!(engine.vm().state_digest(), plain.state_digest());
        assert_eq!(stats.total(), plain.executed());
    }

    #[test]
    fn budget_bounds_total_progress() {
        let prog = assemble(HOT_LOOP).unwrap();
        let stats = TraceReuseEngine::new(
            &prog,
            EngineConfig::paper(RtmConfig::RTM_512, Heuristic::FixedExp(4)),
        )
        .run(500)
        .unwrap();
        assert!(!stats.halted);
        // A single step may overshoot by at most one (expanded) trace
        // length.
        assert!(stats.total() >= 500);
        assert!(stats.total() < 500 + 4096);
    }
}
