//! The workloads' inputs and request sequences, as pure functions of the
//! benchmark seed.
//!
//! Programs are the 14 kernels of `tlr-workloads`, each sized to halt
//! within its request budget so that every request ends in a state that
//! a plain VM run can vouch for. The order in which requests are issued
//! comes from a seeded shuffle; nothing here reads the clock.

use tlr_asm::Program;
use tlr_core::{EngineConfig, Heuristic, RtmConfig};
use tlr_vm::{RunOutcome, Vm};

/// The data seed the paper-reproduction job and the fleet run at
/// (`HarnessConfig::default().seed`).
pub const TRAINING_SEED: u64 = 20260611;

/// Per-request dynamic instruction budget of the paper-reproduction
/// cells.
pub const PAPER_BUDGET: u64 = 100_000;

/// Per-request budget of the serving workloads: short runs, as a fleet
/// of `tlrsim run --remote` clients makes them.
pub const SERVE_BUDGET: u64 = 30_000;

/// Data seeds each kernel cycles through on `cross-seed`.
pub const SEED_POOL: usize = 3;

/// Engine configuration of the serving workloads (the `tlrsim run`
/// defaults: 4K-entry RTM, fixed expansion of 4).
pub fn serve_config() -> EngineConfig {
    EngineConfig::paper(RtmConfig::RTM_4K, Heuristic::FixedExp(4))
}

/// Engine configuration of Figure 9 grid column (`rtm`, `heuristic`):
/// indices into `RtmConfig::PAPER_SWEEP` and `Heuristic::paper_sweep()`.
pub fn paper_config(rtm: usize, heuristic: usize) -> EngineConfig {
    EngineConfig::paper(
        RtmConfig::PAPER_SWEEP[rtm],
        Heuristic::paper_sweep()[heuristic],
    )
}

/// The (kernel, engine configuration) cells the layer ladder runs on a
/// workload: on `paper-repro` every Figure 9 configuration once, the
/// kernels taken round-robin, so the rungs see the grid's mix of RTM
/// sizes and heuristics (ILR collectors included); on the serving
/// workloads every kernel at [`serve_config`]. Either way cell `k` is
/// kernel `k` for each of the first `kernels` cells.
pub fn ladder_cells(kind: Kind, kernels: usize) -> Vec<(usize, EngineConfig)> {
    match kind {
        Kind::PaperRepro => {
            let heuristics = Heuristic::paper_sweep().len();
            (0..RtmConfig::PAPER_SWEEP.len() * heuristics)
                .map(|c| (c % kernels, paper_config(c / heuristics, c % heuristics)))
                .collect()
        }
        Kind::WarmFleet | Kind::CrossSeed => (0..kernels).map(|k| (k, serve_config())).collect(),
    }
}

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `reproduce fig3 … fig9`: limit studies and the Figure 9 grid.
    PaperRepro,
    /// `tlrsim run --remote` clients against an in-process daemon.
    WarmFleet,
    /// `tlrsim serve --snapshots DIR`, data seeds cycled.
    CrossSeed,
}

impl Kind {
    /// Parse a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "paper-repro" => Some(Kind::PaperRepro),
            "warm-fleet" => Some(Kind::WarmFleet),
            "cross-seed" => Some(Kind::CrossSeed),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperRepro => "paper-repro",
            Kind::WarmFleet => "warm-fleet",
            Kind::CrossSeed => "cross-seed",
        }
    }
}

/// One request a client issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Req {
    /// Limit study (`Vm::run` + `LimitStudySink`) of one kernel.
    Limit { kernel: usize },
    /// One Figure 9 grid cell: kernel × RTM capacity × heuristic.
    Cell {
        kernel: usize,
        rtm: usize,
        heuristic: usize,
    },
    /// One serving request for a kernel at the data seed in `slot` of
    /// its pool (slot 0 is the training seed on `warm-fleet`).
    Serve { kernel: usize, slot: usize },
}

/// SplitMix64: a small, seedable, platform-independent generator.
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator for `seed`, decorrelated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next();
        g
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The paper-reproduction job: one limit study per kernel, then every
/// Figure 9 cell.
pub fn paper_job() -> Vec<Req> {
    let kernels = tlr_workloads::all().len();
    let heuristics = Heuristic::paper_sweep().len();
    let mut job: Vec<Req> = (0..kernels).map(|kernel| Req::Limit { kernel }).collect();
    for kernel in 0..kernels {
        for rtm in 0..RtmConfig::PAPER_SWEEP.len() {
            for heuristic in 0..heuristics {
                job.push(Req::Cell {
                    kernel,
                    rtm,
                    heuristic,
                });
            }
        }
    }
    job
}

/// The shared request queue of `paper-repro`: pass after pass of the
/// whole job, each pass in its own seeded order. Clients take the next
/// request from the queue, so the first `paper_job().len()` requests
/// are exactly one complete job.
pub fn paper_queue(seed: u64, passes: usize) -> Vec<Req> {
    let job = paper_job();
    let mut queue = Vec::with_capacity(job.len() * passes);
    for pass in 0..passes {
        let mut order = job.clone();
        SplitMix::new(seed, 1 + pass as u64).shuffle(&mut order);
        queue.extend(order);
    }
    queue
}

/// Kernels client `client` of `clients` serves on `cross-seed`:
/// the kernels are split between clients, so each kernel's registry
/// state evolves under one client only and its counts repeat exactly.
pub fn owned_kernels(client: usize, clients: usize) -> Vec<usize> {
    (0..tlr_workloads::all().len())
        .filter(|k| k % clients == client)
        .collect()
}

/// Client `client`'s request sequence on a serving workload, `rounds`
/// rounds long. A round visits each of the client's kernels once in a
/// seeded order; on `cross-seed` the data-seed slot cycles
/// through the kernel's pool from round to round.
pub fn serve_sequence(
    kind: Kind,
    seed: u64,
    client: usize,
    clients: usize,
    rounds: usize,
) -> Vec<Req> {
    let cross_seed = kind == Kind::CrossSeed;
    let kernels = if cross_seed {
        owned_kernels(client, clients)
    } else {
        (0..tlr_workloads::all().len()).collect()
    };
    let mut rng = SplitMix::new(seed, 1000 + client as u64);
    let mut sequence = Vec::with_capacity(kernels.len() * rounds);
    for round in 0..rounds {
        let mut order = kernels.clone();
        rng.shuffle(&mut order);
        sequence.extend(order.into_iter().map(|kernel| Req::Serve {
            kernel,
            slot: if cross_seed {
                (round + kernel) % SEED_POOL
            } else {
                0
            },
        }));
    }
    sequence
}

/// The data seeds of `kernel`'s pool on `cross-seed`: a fixed
/// pool, never the training seed the producer snapshots were made at,
/// so every pool program starts as a shape-only match. The benchmark
/// seed orders the requests; the pool stays put, so the registry's
/// per-kernel history, and with it `reused_pct`, is the same for
/// every benchmark seed.
pub fn pool_seeds(kernel: usize) -> Vec<u64> {
    (1..=SEED_POOL as u64)
        .map(|slot| TRAINING_SEED + 1000 * slot + kernel as u64)
        .collect()
}

/// A kernel program sized to halt within its budget, with the plain-VM
/// digest of its final state and its dynamic instruction count.
pub struct Sized {
    /// The program.
    pub program: Program,
    /// `Vm::state_digest` after a plain run to `halt`.
    pub digest: u64,
    /// Dynamic instructions of that run.
    pub instrs: u64,
}

/// Build `workload` at every one of `seeds` with one iteration count:
/// the largest (at most the workload's default) at which every seed's
/// plain run halts within `budget`. One count for all seeds keeps the
/// code, and so the shape fingerprint, the same across data seeds.
pub fn sized_kernel(
    workload: &tlr_workloads::Workload,
    seeds: &[u64],
    budget: u64,
) -> Result<Vec<Sized>, String> {
    let run = |seed: u64, iters: u32| -> Result<Sized, Option<u64>> {
        let program = workload.program_with(seed, iters);
        let mut vm = Vm::new(&program);
        match vm.run_fast(budget) {
            Ok(RunOutcome::Halted { .. }) => Ok(Sized {
                digest: vm.state_digest(),
                instrs: vm.executed(),
                program,
            }),
            Ok(outcome) => Err(Some(outcome.executed())),
            Err(_) => Err(None),
        }
    };
    let count = |iters: u32| match run(seeds[0], iters) {
        Ok(sized) => sized.instrs,
        Err(executed) => executed.unwrap_or(budget),
    };
    let (one, two) = (count(1), count(2));
    let per_iter = two.saturating_sub(one).max(1);
    let fixed = one.saturating_sub(per_iter);
    let mut iters = (budget.saturating_sub(fixed) / per_iter)
        .clamp(1, u64::from(workload.default_iters)) as u32;
    loop {
        match seeds.iter().map(|&seed| run(seed, iters)).collect() {
            Ok(sized) => return Ok(sized),
            Err(_) if iters > 1 => iters -= 1,
            Err(_) => {
                return Err(format!(
                    "{} does not halt within {budget} instructions at seeds {seeds:?}",
                    workload.name
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sequences_are_pure_functions_of_the_seed() {
        assert_eq!(paper_queue(7, 2), paper_queue(7, 2));
        assert_ne!(paper_queue(7, 1), paper_queue(8, 1));
        for kind in [Kind::WarmFleet, Kind::CrossSeed] {
            for client in 0..2 {
                assert_eq!(
                    serve_sequence(kind, 7, client, 2, 5),
                    serve_sequence(kind, 7, client, 2, 5)
                );
            }
            assert_ne!(
                serve_sequence(kind, 7, 0, 2, 5),
                serve_sequence(kind, 8, 0, 2, 5)
            );
        }
    }

    #[test]
    fn each_paper_pass_is_the_whole_job() {
        let job = paper_job();
        assert_eq!(job.len(), 14 + 14 * 4 * 10);
        let queue = paper_queue(3, 2);
        for pass in queue.chunks(job.len()) {
            let mut seen = pass.to_vec();
            let mut want = job.clone();
            let key = |r: &Req| format!("{r:?}");
            seen.sort_by_key(key);
            want.sort_by_key(key);
            assert_eq!(seen, want);
        }
    }

    #[test]
    fn paper_ladder_covers_every_grid_configuration() {
        let kernels = tlr_workloads::all().len();
        let cells = ladder_cells(Kind::PaperRepro, kernels);
        assert_eq!(cells.len(), RtmConfig::PAPER_SWEEP.len() * 10);
        for (k, (kernel, _)) in cells.iter().take(kernels).enumerate() {
            assert_eq!(*kernel, k);
        }
        for rtm in 0..RtmConfig::PAPER_SWEEP.len() {
            for heuristic in 0..10 {
                let want = paper_config(rtm, heuristic);
                let found = cells
                    .iter()
                    .filter(|(_, c)| c.rtm == want.rtm && c.heuristic == want.heuristic);
                assert_eq!(found.count(), 1, "rtm {rtm} heuristic {heuristic}");
            }
        }
        let serving = ladder_cells(Kind::WarmFleet, kernels);
        assert_eq!(serving.len(), kernels);
    }

    #[test]
    fn cross_seed_clients_split_the_kernels() {
        let a = owned_kernels(0, 2);
        let b = owned_kernels(1, 2);
        assert_eq!(a.len() + b.len(), 14);
        assert!(a.iter().all(|k| !b.contains(k)));
        let seq = serve_sequence(Kind::CrossSeed, 1, 1, 2, SEED_POOL);
        for req in &seq {
            let Req::Serve { kernel, slot } = *req else {
                panic!("not a serving request")
            };
            assert!(b.contains(&kernel) && slot < SEED_POOL);
        }
        // Over SEED_POOL rounds every (kernel, slot) pair comes up once.
        let mut pairs: Vec<_> = seq.iter().map(|r| format!("{r:?}")).collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), b.len() * SEED_POOL);
    }

    #[test]
    fn sized_programs_halt_within_budget() {
        for (k, w) in tlr_workloads::all().iter().enumerate() {
            let seeds = pool_seeds(k);
            let sized = sized_kernel(w, &seeds, SERVE_BUDGET).unwrap();
            let shape = tlr_persist::program_shape_fingerprint(&sized[0].program);
            for s in &sized {
                assert!(s.instrs <= SERVE_BUDGET, "{}", w.name);
                assert!(s.instrs > SERVE_BUDGET / 4, "{} undersized", w.name);
                let same = tlr_persist::program_shape_fingerprint(&s.program) == shape;
                assert!(same, "{}: shape differs across seeds", w.name);
            }
        }
    }
}
