//! In-process batched simulator execution.
//!
//! The fleet and daemon experiments originally modelled "many serving
//! instances" as a process (or thread) per instance, each paying its own
//! program load and cold caches. [`BatchRunner`] replaces that shape for
//! measurement workloads: many [`tlr_core::TraceReuseEngine`] instances
//! live in one process, share one warm snapshot registry, and are driven
//! to completion by a single scheduler loop — either one instance at a
//! time ([`Schedule::RunToCompletion`]) or interleaved in fixed quanta
//! ([`Schedule::RoundRobin`]), the two classic multiprogramming shapes.
//! Because every engine runs on the predecoded fast substrate, a whole
//! fleet's dynamic work becomes one tight loop per process.

use tlr_asm::Program;
use tlr_core::{EngineConfig, EngineStats, RtmSnapshot, TraceReuseEngine};

/// How the runner interleaves its instances.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Drive each instance to halt (or budget) before starting the next.
    RunToCompletion,
    /// Cycle through live instances, granting each `quantum` dynamic
    /// instructions per turn — the fairness shape of a time-shared fleet.
    RoundRobin {
        /// Dynamic instructions (executed + skipped) per turn.
        quantum: u64,
    },
}

/// One simulator instance to batch.
pub struct BatchSpec {
    /// Display name (workload, client id, ...).
    pub name: String,
    /// Program to run.
    pub program: Program,
    /// Engine configuration (value-comparison reuse test only).
    pub config: EngineConfig,
    /// Dynamic instruction budget (executed + skipped).
    pub budget: u64,
    /// Warm-start snapshot; `None` starts cold.
    pub warm: Option<RtmSnapshot>,
    /// Collect new traces? `false` builds a serving-only engine
    /// ([`TraceReuseEngine::without_collection`]).
    pub collect: bool,
}

impl BatchSpec {
    /// A cold, collecting instance — the common case.
    pub fn new(
        name: impl Into<String>,
        program: Program,
        config: EngineConfig,
        budget: u64,
    ) -> Self {
        Self {
            name: name.into(),
            program,
            config,
            budget,
            warm: None,
            collect: true,
        }
    }

    /// Warm-start from `snapshot`.
    pub fn with_warm(mut self, snapshot: RtmSnapshot) -> Self {
        self.warm = Some(snapshot);
        self
    }

    /// Serving-only: never collect new traces.
    pub fn serving_only(mut self) -> Self {
        self.collect = false;
        self
    }
}

/// What one batched instance produced.
pub struct BatchOutcome {
    /// The spec's name.
    pub name: String,
    /// Final engine statistics.
    pub stats: EngineStats,
    /// Final architectural-state digest ([`tlr_vm::Vm::state_digest`]).
    pub digest: u64,
    /// The instance's final RTM contents (for registry pooling).
    pub snapshot: RtmSnapshot,
}

/// Executes many simulator instances in one process under one scheduler.
pub struct BatchRunner {
    schedule: Schedule,
    specs: Vec<BatchSpec>,
}

impl BatchRunner {
    /// An empty runner with the given schedule.
    pub fn new(schedule: Schedule) -> Self {
        Self {
            schedule,
            specs: Vec::new(),
        }
    }

    /// Queue an instance.
    pub fn push(&mut self, spec: BatchSpec) {
        self.specs.push(spec);
    }

    /// Queued instances.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Run every instance to halt or budget, returning outcomes in push
    /// order. Errors carry the failing instance's name.
    pub fn run(self) -> Result<Vec<BatchOutcome>, String> {
        let Self { schedule, specs } = self;
        let mut engines: Vec<(String, u64, TraceReuseEngine)> = specs
            .into_iter()
            .map(|spec| {
                let mut engine = match &spec.warm {
                    Some(snapshot) => {
                        TraceReuseEngine::new_warm(&spec.program, spec.config, snapshot)
                    }
                    None => TraceReuseEngine::new(&spec.program, spec.config),
                };
                if !spec.collect {
                    engine = engine.without_collection();
                }
                (spec.name, spec.budget, engine)
            })
            .collect();

        match schedule {
            Schedule::RunToCompletion => {
                for (name, budget, engine) in engines.iter_mut() {
                    engine
                        .run(*budget)
                        .map_err(|e| format!("{name}: engine error: {e}"))?;
                }
            }
            Schedule::RoundRobin { quantum } => {
                let quantum = quantum.max(1);
                let mut live = true;
                while live {
                    live = false;
                    for (name, budget, engine) in engines.iter_mut() {
                        let stats = engine.stats();
                        if stats.halted || stats.total() >= *budget {
                            continue;
                        }
                        let target = stats.total().saturating_add(quantum).min(*budget);
                        engine
                            .run(target)
                            .map_err(|e| format!("{name}: engine error: {e}"))?;
                        live = true;
                    }
                }
            }
        }

        engines
            .into_iter()
            .map(|(name, _, engine)| {
                let snapshot = engine
                    .export_rtm()
                    .ok_or_else(|| format!("{name}: a valid-bit engine exports no RTM"))?;
                Ok(BatchOutcome {
                    name,
                    digest: engine.vm().state_digest(),
                    snapshot,
                    stats: engine.stats(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_core::{Heuristic, RtmConfig};

    fn spec(name: &str, seed: u64, budget: u64) -> BatchSpec {
        let w = tlr_workloads::by_name(name).unwrap();
        BatchSpec::new(
            name,
            w.program(seed),
            EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4)),
            budget,
        )
    }

    #[test]
    fn schedules_are_equivalent_and_deterministic() {
        let mut rtc = BatchRunner::new(Schedule::RunToCompletion);
        let mut rr = BatchRunner::new(Schedule::RoundRobin { quantum: 1_000 });
        for name in ["compress", "li", "ijpeg"] {
            rtc.push(spec(name, 11, 40_000));
            rr.push(spec(name, 11, 40_000));
        }
        let a = rtc.run().unwrap();
        let b = rr.run().unwrap();
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            // Instances are independent: interleaving cannot change any
            // result, only the order work was done in.
            assert_eq!(x.digest, y.digest, "{}", x.name);
            assert_eq!(x.stats, y.stats, "{}", x.name);
            assert!(x.stats.total() >= 40_000 || x.stats.halted);
        }
    }

    #[test]
    fn batch_matches_individual_engines() {
        let w = tlr_workloads::by_name("compress").unwrap();
        let prog = w.program(7);
        let cfg = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        let mut solo = TraceReuseEngine::new(&prog, cfg);
        let solo_stats = solo.run(30_000).unwrap();

        let mut runner = BatchRunner::new(Schedule::RoundRobin { quantum: 777 });
        runner.push(BatchSpec::new("compress", prog, cfg, 30_000));
        let outcomes = runner.run().unwrap();
        assert_eq!(outcomes[0].stats, solo_stats);
        assert_eq!(outcomes[0].digest, solo.vm().state_digest());
    }

    #[test]
    fn warm_and_serving_specs_apply() {
        let w = tlr_workloads::by_name("li").unwrap();
        let prog = w.program(3);
        let cfg = EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4));
        let mut teacher = TraceReuseEngine::new(&prog, cfg);
        teacher.run(40_000).unwrap();
        let snap = teacher.export_rtm().unwrap();

        let mut runner = BatchRunner::new(Schedule::RunToCompletion);
        runner.push(
            BatchSpec::new("li-serve", prog, cfg, 40_000)
                .with_warm(snap)
                .serving_only(),
        );
        let out = runner.run().unwrap().remove(0);
        assert!(out.stats.skipped > 0, "warm serving instance must hit");
        assert_eq!(out.stats.rtm.stores, 0, "serving-only never inserts");
    }
}
