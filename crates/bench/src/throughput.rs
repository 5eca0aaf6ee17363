//! Raw simulation throughput: the observing interpreter, the predecoded
//! fast path, and the reuse engine on top of it (ours).
//!
//! Every other `reproduce` target measures *what* trace-level reuse
//! saves; this one measures how fast the simulator itself goes, because
//! the limit studies and RTM sweeps are bounded by simulator throughput,
//! not by analysis. Four configurations are timed per workload over the
//! same dynamic instruction budget:
//!
//! 1. **vm-ref** — the observing interpreter ([`Vm::run`] with a
//!    [`NullSink`]): fills a full `DynInstr` with read/write records per
//!    step, the substrate the limit studies consume.
//! 2. **vm-fast** — the predecoded fast path ([`Vm::run_fast`]): flat
//!    dispatch over the predecode table, no records.
//! 3. **engine** — [`TraceReuseEngine`] collecting cold, the machine
//!    behind Figure 9.
//! 4. **serve** — a warm serving-only instance
//!    ([`TraceReuseEngine::without_collection`]) seeded from the engine
//!    run's traces, the fleet steady state.
//!
//! Speed is reported in MIPS (millions of dynamic instructions per
//! wall-clock second). Every row checks that the two interpreters end in
//! the same state, and that the engine and the serving engine each end
//! exactly where a plain [`Vm::run_fast`] of their progress does; these
//! are gated hard by `--check`. Speeds are gated on suite means so a
//! single noisy CI row cannot flip the verdict.

use std::time::Instant;

use crate::harness::{against_plain_vm, HarnessConfig};
use tlr_core::{EngineConfig, Heuristic, RtmConfig, TraceReuseEngine};
use tlr_isa::NullSink;
use tlr_stats::Table;
use tlr_vm::Vm;

/// Collection heuristic used for every timed engine configuration.
pub const THROUGHPUT_HEURISTIC: Heuristic = Heuristic::FixedExp(4);

/// Floor on the collecting engine's suite-mean MIPS over the fast
/// interpreter's suite-mean MIPS. Set at the ratio the engine reached
/// before the observed step filled its record in place (median of three
/// runs at a 100k budget: 0.0469, 0.0478, 0.0485), so a return of the
/// by-value record fails the gate on any machine.
pub const COLLECTING_FLOOR: f64 = 0.048;

/// One workload's timed comparison.
pub struct ThroughputCell {
    /// Benchmark name.
    pub name: &'static str,
    /// Observing interpreter MIPS.
    pub vm_ref_mips: f64,
    /// Predecoded fast-path MIPS.
    pub vm_fast_mips: f64,
    /// Collecting reuse-engine MIPS.
    pub eng_mips: f64,
    /// Warm serving-only engine MIPS.
    pub serve_mips: f64,
    /// Dynamic instructions executed by each VM run.
    pub vm_instrs: u64,
    /// Dynamic progress (executed + skipped) of the engine run.
    pub eng_total: u64,
    /// `pct_reused()` of the engine run.
    pub pct_reused: f64,
    /// Both interpreters, the engine and the serving engine ended in the
    /// architectural state of plain execution.
    pub digest_ok: bool,
    /// The interpreters executed equally many instructions, and each
    /// engine's progress and halt match plain execution.
    pub counts_ok: bool,
}

impl ThroughputCell {
    /// vm-fast over vm-ref.
    pub fn vm_speedup(&self) -> f64 {
        self.vm_fast_mips / self.vm_ref_mips
    }

    /// Collecting engine over vm-fast.
    pub fn engine_ratio(&self) -> f64 {
        self.eng_mips / self.vm_fast_mips
    }
}

fn mips(instrs: u64, secs: f64) -> f64 {
    instrs as f64 / secs.max(1e-9) / 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Time the four configurations on every workload, serially — timing
/// runs share nothing so wall-clock stays honest.
pub fn run_throughput(cfg: &HarnessConfig, rtm: RtmConfig) -> Vec<ThroughputCell> {
    let config = EngineConfig::paper(rtm, THROUGHPUT_HEURISTIC);
    tlr_workloads::all()
        .iter()
        .map(|w| {
            let prog = w.program(cfg.seed);

            let (vm_ref, ref_secs) = timed(|| {
                let mut vm = Vm::new(&prog);
                vm.run(cfg.budget, &mut NullSink)
                    .unwrap_or_else(|e| panic!("{}: vm-ref error: {e}", w.name));
                vm
            });
            let (vm_fast, fast_secs) = timed(|| {
                let mut vm = Vm::new(&prog);
                vm.run_fast(cfg.budget)
                    .unwrap_or_else(|e| panic!("{}: vm-fast error: {e}", w.name));
                vm
            });

            let (engine, eng_secs) = timed(|| {
                let mut engine = TraceReuseEngine::new(&prog, config);
                engine
                    .run(cfg.budget)
                    .unwrap_or_else(|e| panic!("{}: engine error: {e}", w.name));
                engine
            });
            // Fleet steady state: a fresh instance serving the engine
            // run's traces without collecting anything new.
            let snapshot = engine.export_rtm().expect("value-comparison RTM");
            let (serve, serve_secs) = timed(|| {
                let mut engine =
                    TraceReuseEngine::new_warm(&prog, config, &snapshot).without_collection();
                engine
                    .run(cfg.budget)
                    .unwrap_or_else(|e| panic!("{}: engine-serve error: {e}", w.name));
                engine
            });

            let eng_plain = against_plain_vm(&prog, &engine);
            let serve_plain = against_plain_vm(&prog, &serve);
            let eng_stats = engine.stats();
            ThroughputCell {
                name: w.name,
                vm_ref_mips: mips(vm_ref.executed(), ref_secs),
                vm_fast_mips: mips(vm_fast.executed(), fast_secs),
                eng_mips: mips(eng_stats.total(), eng_secs),
                serve_mips: mips(serve.stats().total(), serve_secs),
                vm_instrs: vm_ref.executed(),
                eng_total: eng_stats.total(),
                pct_reused: eng_stats.pct_reused(),
                digest_ok: vm_ref.state_digest() == vm_fast.state_digest()
                    && eng_plain.digest_ok
                    && serve_plain.digest_ok,
                counts_ok: vm_ref.executed() == vm_fast.executed()
                    && eng_plain.counts_ok
                    && serve_plain.counts_ok,
            }
        })
        .collect()
}

/// Mean of `f` over `cells`.
fn mean(cells: &[ThroughputCell], f: impl Fn(&ThroughputCell) -> f64) -> f64 {
    cells.iter().map(f).sum::<f64>() / cells.len() as f64
}

/// The collecting engine's suite-mean MIPS over the fast interpreter's:
/// the ratio [`COLLECTING_FLOOR`] bounds.
pub fn suite_engine_ratio(cells: &[ThroughputCell]) -> f64 {
    mean(cells, |c| c.eng_mips) / mean(cells, |c| c.vm_fast_mips)
}

/// Table: per benchmark, MIPS of every configuration with the
/// interpreter speedup, the engine's share of fast-path speed and the
/// equality verdict; suite means on the last row (its `eng/vm` is
/// [`suite_engine_ratio`]).
pub fn throughput_table(cells: &[ThroughputCell]) -> Table {
    let mut table = Table::new(vec![
        "benchmark",
        "vm-ref MIPS",
        "vm-fast MIPS",
        "vm x",
        "engine MIPS",
        "eng/vm",
        "serve MIPS",
        "reused %",
        "state",
    ]);
    for cell in cells {
        table.row(vec![
            cell.name.to_string(),
            format!("{:.2}", cell.vm_ref_mips),
            format!("{:.2}", cell.vm_fast_mips),
            format!("{:.2}", cell.vm_speedup()),
            format!("{:.2}", cell.eng_mips),
            format!("{:.3}", cell.engine_ratio()),
            format!("{:.2}", cell.serve_mips),
            format!("{:.1}", cell.pct_reused),
            if cell.digest_ok && cell.counts_ok {
                "ok"
            } else {
                "MISMATCH"
            }
            .to_string(),
        ]);
    }
    if !cells.is_empty() {
        table.row(vec![
            "mean".to_string(),
            format!("{:.2}", mean(cells, |c| c.vm_ref_mips)),
            format!("{:.2}", mean(cells, |c| c.vm_fast_mips)),
            format!("{:.2}", mean(cells, ThroughputCell::vm_speedup)),
            format!("{:.2}", mean(cells, |c| c.eng_mips)),
            format!("{:.3}", suite_engine_ratio(cells)),
            format!("{:.2}", mean(cells, |c| c.serve_mips)),
            format!("{:.1}", mean(cells, |c| c.pct_reused)),
            String::new(),
        ]);
    }
    table
}

/// Regression gate for CI.
///
/// Hard invariants: on every row both interpreters agree, and the engine
/// and the serving engine each match plain execution of their progress
/// in state and counts.
///
/// Timing is gated only on suite **means**, so one preempted CI row
/// cannot flip the verdict, and each gate matches what its layer
/// actually claims:
///
/// * predecode — the fast interpreter must average at least 2× the
///   observing one;
/// * trace blocks — the warm serving-only engine must average at least
///   the collecting engine's speed;
/// * the in-place observed step — the collecting engine's suite-mean
///   MIPS must stay at or above [`COLLECTING_FLOOR`] of the fast
///   interpreter's, the ratio it had while records were returned by
///   value.
pub fn check_throughput(cells: &[ThroughputCell]) -> Result<(), String> {
    for cell in cells {
        if !cell.digest_ok {
            return Err(format!(
                "{}: an interpreter or engine diverged from plain execution's architectural state",
                cell.name
            ));
        }
        if !cell.counts_ok {
            return Err(format!(
                "{}: an interpreter or engine disagreed with plain execution on progress",
                cell.name
            ));
        }
    }
    if cells.is_empty() {
        return Err("throughput produced no rows".to_string());
    }
    let vm_mean = mean(cells, ThroughputCell::vm_speedup);
    let serve_mean = mean(cells, |c| c.serve_mips);
    let eng_mean = mean(cells, |c| c.eng_mips);
    let eng_ratio = suite_engine_ratio(cells);
    if vm_mean < 2.0 {
        return Err(format!(
            "predecoded fast path below 2x the observing interpreter on average ({vm_mean:.2}x)"
        ));
    }
    if serve_mean < eng_mean {
        return Err(format!(
            "warm serving engine ({serve_mean:.2} MIPS) slower than the collecting engine \
             ({eng_mean:.2} MIPS) on average"
        ));
    }
    if eng_ratio < COLLECTING_FLOOR {
        return Err(format!(
            "collecting engine at {eng_ratio:.3} of the fast interpreter's speed \
             (floor {COLLECTING_FLOOR})"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_rows_agree_on_state_and_counts() {
        let cfg = HarnessConfig {
            budget: 20_000,
            ..HarnessConfig::quick()
        };
        let cells = run_throughput(&cfg, RtmConfig::RTM_4K);
        assert_eq!(cells.len(), tlr_workloads::all().len());
        for cell in &cells {
            assert!(cell.digest_ok, "{}: digest mismatch", cell.name);
            assert!(cell.counts_ok, "{}: count mismatch", cell.name);
            assert!(cell.vm_instrs > 0 && cell.eng_total > 0, "{}", cell.name);
        }
        let table = throughput_table(&cells);
        assert_eq!(table.len(), cells.len() + 1);
    }

    #[test]
    fn gate_holds_the_collecting_engine_to_its_floor() {
        let cell = |eng_mips: f64| ThroughputCell {
            name: "synthetic",
            vm_ref_mips: 50.0,
            vm_fast_mips: 200.0,
            eng_mips,
            serve_mips: 60.0,
            vm_instrs: 1,
            eng_total: 1,
            pct_reused: 0.0,
            digest_ok: true,
            counts_ok: true,
        };
        let at_floor = COLLECTING_FLOOR * 200.0;
        assert!(check_throughput(&[cell(at_floor)]).is_ok());
        let err = check_throughput(&[cell(at_floor * 0.9)]).unwrap_err();
        assert!(err.contains("floor"), "{err}");
        // The floor is on the ratio of suite means, not per row.
        assert!(check_throughput(&[cell(at_floor * 0.5), cell(at_floor * 1.5)]).is_ok());
        let mut broken = cell(at_floor);
        broken.counts_ok = false;
        assert!(check_throughput(&[broken]).is_err());
    }
}
