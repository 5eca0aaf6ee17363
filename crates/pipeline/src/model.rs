//! The pipeline model.

use tlr_asm::Program;
use tlr_core::{Collector, FiniteIlrBuffer, Heuristic, IoCaps, ReuseTraceMemory, RtmConfig};
use tlr_isa::{Alpha21164, DynInstr, LatencyModel, Loc};
use tlr_timing::CompletionTables;
use tlr_vm::{Vm, VmError};

/// Reuse-side configuration of the pipeline.
#[derive(Clone, Copy, Debug)]
pub struct ReuseConfig {
    /// RTM geometry.
    pub rtm: RtmConfig,
    /// Trace-collection heuristic.
    pub heuristic: Heuristic,
    /// Per-trace I/O caps.
    pub caps: IoCaps,
    /// Cycles a reuse operation takes once the trace's live-ins are
    /// ready (the valid-bit style test; §3.3).
    pub reuse_latency: u64,
    /// Window slots a reused trace occupies (1 = the paper's
    /// precise-exception reuse op; 0 = ideal bypass).
    pub trace_slots: u32,
    /// Whether reused traces skip the fetch stage. Disabling this is an
    /// ablation: the trace still skips *execution* but its instructions
    /// consume fetch slots, isolating the fetch-bandwidth benefit the
    /// paper claims for trace-level (vs instruction-level) reuse.
    pub fetch_skip: bool,
}

impl ReuseConfig {
    /// The paper's §3 arrangement over a given RTM/heuristic.
    pub fn paper(rtm: RtmConfig, heuristic: Heuristic) -> Self {
        Self {
            rtm,
            heuristic,
            caps: IoCaps::PAPER,
            reuse_latency: 1,
            trace_slots: 1,
            fetch_skip: true,
        }
    }
}

/// Pipeline configuration.
#[derive(Clone, Copy, Debug)]
pub struct PipeConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instruction-window entries (in-flight limit).
    pub window: usize,
    /// Optional reuse machinery.
    pub reuse: Option<ReuseConfig>,
}

impl Default for PipeConfig {
    fn default() -> Self {
        Self {
            fetch_width: 4,
            window: 256,
            reuse: None,
        }
    }
}

/// Run statistics.
#[derive(Clone, Debug, Default)]
pub struct PipeStats {
    /// Architectural instructions retired (executed + reused).
    pub instrs: u64,
    /// Instructions that went through fetch (reused+skipped ones do not).
    pub fetched: u64,
    /// Instructions covered by reuse hits.
    pub reused_instrs: u64,
    /// Reuse operations taken.
    pub reuse_ops: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Whether the program halted within budget.
    pub halted: bool,
}

impl PipeStats {
    /// Retired architectural instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// Fetch-bandwidth saving: fraction of architectural instructions
    /// that never consumed a fetch slot.
    pub fn fetch_saving(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            1.0 - self.fetched as f64 / self.instrs as f64
        }
    }
}

/// In-order-retire window: ring of retirement cycles.
struct RetireRing {
    ring: Vec<u64>,
    issued: u64,
    last_retire: u64,
}

impl RetireRing {
    fn new(size: usize) -> Self {
        Self {
            ring: vec![0; size],
            issued: 0,
            last_retire: 0,
        }
    }

    /// Earliest cycle at which a new op can claim a window slot: the
    /// retirement cycle of the op `window` slots ago.
    fn slot_free_at(&self) -> u64 {
        if (self.issued as usize) < self.ring.len() {
            0
        } else {
            self.ring[(self.issued as usize) % self.ring.len()]
        }
    }

    /// Occupy a slot for an op completing at `complete`; retirement is
    /// in order.
    fn occupy(&mut self, complete: u64) -> u64 {
        self.last_retire = self.last_retire.max(complete);
        let idx = (self.issued as usize) % self.ring.len();
        self.ring[idx] = self.last_retire;
        self.issued += 1;
        self.last_retire
    }
}

/// The execution-driven pipeline.
pub struct Pipeline {
    vm: Vm,
    config: PipeConfig,
    latency: Alpha21164,
    tables: CompletionTables,
    ring: RetireRing,
    /// Cycle at which the next fetch slot is available, per slot counting.
    fetch_slot: u64,
    /// Fetch redirect point: earliest fetch cycle (advanced by reuse
    /// repair / nothing else under perfect prediction).
    rtm: Option<ReuseTraceMemory>,
    collector: Option<Collector>,
    stats: PipeStats,
    max_cycle: u64,
}

impl Pipeline {
    /// Load a program.
    pub fn new(program: &Program, config: PipeConfig) -> Self {
        let (rtm, collector) = match config.reuse {
            None => (None, None),
            Some(rc) => {
                let ilr = match rc.heuristic {
                    Heuristic::IlrNe | Heuristic::IlrExp => {
                        Some(FiniteIlrBuffer::new(rc.rtm.geometry))
                    }
                    Heuristic::FixedExp(_) | Heuristic::BasicBlock => None,
                };
                (
                    Some(ReuseTraceMemory::new(rc.rtm)),
                    Some(Collector::new(rc.heuristic, rc.caps, ilr)),
                )
            }
        };
        Self {
            vm: Vm::new(program),
            config,
            latency: Alpha21164,
            tables: CompletionTables::new(),
            ring: RetireRing::new(config.window),
            fetch_slot: 0,
            rtm,
            collector,
            stats: PipeStats::default(),
            max_cycle: 0,
        }
    }

    /// Cycle at which fetch slot number `n` is available.
    #[inline]
    fn fetch_cycle_for(&mut self) -> u64 {
        let c = self.fetch_slot / self.config.fetch_width as u64;
        self.fetch_slot += 1;
        c
    }

    fn dispatch_normal(&mut self, d: &DynInstr) {
        let fetch_c = self.fetch_cycle_for();
        let slot_c = self.ring.slot_free_at();
        let dispatch_c = fetch_c.max(slot_c);
        let ready = self.tables.max_over_reads(&d.reads).max(dispatch_c);
        let complete = ready + self.latency.latency(d.class);
        for (loc, _) in d.writes.iter() {
            self.tables.set(*loc, complete);
        }
        let retired = self.ring.occupy(complete);
        self.max_cycle = self.max_cycle.max(retired);
        self.stats.fetched += 1;
        self.stats.instrs += 1;
    }

    fn dispatch_reuse(&mut self, live_ins: &[(Loc, u64)], outs: &[(Loc, u64)], len: u32) {
        let rc = self.config.reuse.expect("reuse dispatch without config");
        // The reuse op consumes one fetch slot (the trace body none, when
        // fetch_skip is on).
        let fetch_c = self.fetch_cycle_for();
        if !rc.fetch_skip {
            // Ablation: burn fetch slots for the whole body anyway.
            for _ in 1..len {
                let _ = self.fetch_cycle_for();
            }
            self.stats.fetched += len as u64 - 1;
        }
        let slot_c = self.ring.slot_free_at();
        let dispatch_c = fetch_c.max(slot_c);
        let ready = self
            .tables
            .max_over_locs(live_ins.iter().map(|(l, _)| l))
            .max(dispatch_c);
        let complete = ready + rc.reuse_latency;
        for (loc, _) in outs.iter() {
            self.tables.set(*loc, complete);
        }
        let mut retired = complete;
        for _ in 0..rc.trace_slots {
            retired = self.ring.occupy(complete);
        }
        self.max_cycle = self.max_cycle.max(retired);
        self.stats.fetched += 1;
        self.stats.instrs += len as u64;
        self.stats.reused_instrs += len as u64;
        self.stats.reuse_ops += 1;
    }

    /// Run until `halt` or `budget` architectural instructions.
    pub fn run(&mut self, budget: u64) -> Result<PipeStats, VmError> {
        let mut rec = DynInstr::default();
        while self.stats.instrs < budget && !self.stats.halted {
            // Fetch-stage RTM probe.
            if self.rtm.is_some() {
                let pc = self.vm.pc();
                let vm = &self.vm;
                let hit = self
                    .rtm
                    .as_mut()
                    .unwrap()
                    .lookup(pc, |loc| vm.peek_loc(loc));
                if let Some(hit) = hit {
                    self.vm.apply_trace(hit.outs.iter().copied(), hit.next_pc)?;
                    self.dispatch_reuse(&hit.ins, &hit.outs, hit.len);
                    let recs = self.collector.as_mut().unwrap().on_reuse_hit(&hit);
                    for rec in recs {
                        self.rtm.as_mut().unwrap().insert(rec);
                    }
                    continue;
                }
            }
            if !self.vm.step_into(&mut rec)? {
                self.stats.halted = true;
                continue;
            }
            self.dispatch_normal(&rec);
            if let Some(collector) = self.collector.as_mut() {
                for trace in collector.on_executed(&rec) {
                    self.rtm.as_mut().unwrap().insert(trace);
                }
            }
        }
        self.stats.cycles = self.max_cycle;
        Ok(self.stats.clone())
    }

    /// Final architectural state probe (equivalence tests).
    pub fn vm(&self) -> &Vm {
        &self.vm
    }
}

/// Convenience: run `program` under `config` for `budget` instructions.
pub fn run_pipeline(
    program: &Program,
    config: PipeConfig,
    budget: u64,
) -> Result<PipeStats, VmError> {
    Pipeline::new(program, config).run(budget)
}

/// Map of per-location final values for equivalence checking.
#[cfg(test)]
pub(crate) fn arch_fingerprint(vm: &Vm, locs: &[Loc]) -> tlr_util::FxHashMap<Loc, u64> {
    locs.iter().map(|l| (*l, vm.peek_loc(*l))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_asm::assemble;

    const KERNEL: &str = r#"
            .org 0x80
    tab:    .word 2, 4, 6, 8, 10, 12, 14, 16
            li      r9, 400
    outer:  li      r1, tab
            li      r2, 8
            li      r5, 0
    inner:  ldq     r3, 0(r1)
            mulq    r4, r3, r3
            addq    r5, r5, r4
            addq    r1, r1, 1
            subq    r2, r2, 1
            bnez    r2, inner
            stq     r5, 64(zero)
            subq    r9, r9, 1
            bnez    r9, outer
            halt
    "#;

    #[test]
    fn baseline_ipc_is_bounded_by_fetch_width() {
        let prog = assemble(KERNEL).unwrap();
        let stats = run_pipeline(&prog, PipeConfig::default(), 100_000).unwrap();
        assert!(stats.halted);
        assert!(stats.ipc() > 0.1);
        assert!(
            stats.ipc() <= 4.0 + 1e-9,
            "ipc {} exceeds fetch width",
            stats.ipc()
        );
        assert_eq!(stats.fetched, stats.instrs);
        assert_eq!(stats.reuse_ops, 0);
    }

    #[test]
    fn narrower_fetch_is_slower() {
        let prog = assemble(KERNEL).unwrap();
        let wide = run_pipeline(
            &prog,
            PipeConfig {
                fetch_width: 8,
                ..Default::default()
            },
            100_000,
        )
        .unwrap();
        let narrow = run_pipeline(
            &prog,
            PipeConfig {
                fetch_width: 1,
                ..Default::default()
            },
            100_000,
        )
        .unwrap();
        assert!(narrow.cycles > wide.cycles);
    }

    #[test]
    fn reuse_raises_ipc_and_saves_fetch() {
        let prog = assemble(KERNEL).unwrap();
        let base = run_pipeline(&prog, PipeConfig::default(), 200_000).unwrap();
        let reuse = run_pipeline(
            &prog,
            PipeConfig {
                reuse: Some(ReuseConfig::paper(
                    RtmConfig::RTM_4K,
                    Heuristic::FixedExp(4),
                )),
                ..Default::default()
            },
            200_000,
        )
        .unwrap();
        assert!(reuse.reuse_ops > 0);
        assert!(
            reuse.fetch_saving() > 0.2,
            "saving {}",
            reuse.fetch_saving()
        );
        assert!(
            reuse.ipc() > base.ipc(),
            "reuse ipc {} <= base ipc {}",
            reuse.ipc(),
            base.ipc()
        );
        // IPC may exceed fetch width: reused instructions bypass fetch.
        assert_eq!(base.instrs, reuse.instrs, "same architectural work");
    }

    #[test]
    fn reuse_preserves_final_state() {
        let prog = assemble(KERNEL).unwrap();
        let mut base = Pipeline::new(&prog, PipeConfig::default());
        base.run(1_000_000).unwrap();
        let mut reuse = Pipeline::new(
            &prog,
            PipeConfig {
                reuse: Some(ReuseConfig::paper(RtmConfig::RTM_512, Heuristic::IlrExp)),
                ..Default::default()
            },
        );
        reuse.run(1_000_000).unwrap();
        let locs = [Loc::Mem(64), Loc::IntReg(5), Loc::IntReg(9)];
        assert_eq!(
            arch_fingerprint(base.vm(), &locs),
            arch_fingerprint(reuse.vm(), &locs)
        );
    }

    #[test]
    fn fetch_skip_ablation_costs_bandwidth() {
        let prog = assemble(KERNEL).unwrap();
        let mk = |fetch_skip| PipeConfig {
            fetch_width: 2,
            reuse: Some(ReuseConfig {
                fetch_skip,
                ..ReuseConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4))
            }),
            ..Default::default()
        };
        let skipping = run_pipeline(&prog, mk(true), 200_000).unwrap();
        let fetching = run_pipeline(&prog, mk(false), 200_000).unwrap();
        assert!(fetching.fetched > skipping.fetched);
        assert!(
            fetching.cycles >= skipping.cycles,
            "fetching all instructions must not be faster"
        );
    }
}
