//! The workloads: set-up, the closed-loop driver, and one request
//! of each kind, each copying a real user command's call sequence.

use crate::plan::{self, Kind, Req, Sized, PAPER_BUDGET, SERVE_BUDGET, TRAINING_SEED};
use crate::spans::{Recorder, Span};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tlr_core::{EngineStats, LimitConfig, LimitResult, LimitStudySink, TraceReuseEngine};
use tlr_isa::Alpha21164;
use tlr_persist::{program_fingerprint, program_shape_fingerprint};
use tlr_serve::{
    Daemon, DaemonHandle, RegistryConfig, RemoteRegistry, ServeError, SnapshotRegistry,
};
use tlr_vm::{RunOutcome, Vm};

/// Rounds each cross-seed client completes before `reused_pct`
/// is taken: every (kernel, data seed) pair twice.
pub const PREFIX_ROUNDS: usize = 2 * plan::SEED_POOL;

/// One program a request runs, with its identities.
pub struct Input {
    /// Program sized to halt within the request budget, and its digest.
    pub sized: Sized,
    /// Data seed the program was generated at.
    pub seed: u64,
    /// `program_fingerprint`.
    pub fingerprint: u64,
    /// `program_shape_fingerprint`.
    pub shape: u64,
}

impl Input {
    fn new(sized: Sized, seed: u64) -> Self {
        Input {
            fingerprint: program_fingerprint(&sized.program),
            shape: program_shape_fingerprint(&sized.program),
            sized,
            seed,
        }
    }
}

struct Served {
    sock: PathBuf,
    handle: DaemonHandle,
    thread: std::thread::JoinHandle<Result<(), ServeError>>,
}

/// Everything set-up builds for one workload.
pub struct Env {
    /// Benchmark seed.
    pub seed: u64,
    /// `inputs[kernel][slot]`: slot 0 only, except on `cross-seed`, where
    /// the slots are the kernel's data-seed pool.
    pub inputs: Vec<Vec<Input>>,
    /// The snapshot registry of the serving workloads.
    pub registry: Option<Arc<SnapshotRegistry>>,
    served: Option<Served>,
    /// Directory holding this set-up's files.
    pub dir: PathBuf,
}

fn vm_err(e: tlr_vm::VmError) -> String {
    e.to_string()
}

fn serve_err(e: ServeError) -> String {
    e.to_string()
}

/// Cold engine run of `input`, exported with its shape and saved into
/// `dir` as a producer snapshot.
fn produce(input: &Input, name: &str, dir: &Path) -> Result<(), String> {
    let mut engine = TraceReuseEngine::new(&input.sized.program, plan::serve_config());
    engine.set_source_run(input.seed);
    engine.run(SERVE_BUDGET).map_err(vm_err)?;
    let mut snapshot = engine.export_rtm().ok_or("engine exports no RTM")?;
    snapshot.shape = input.shape;
    let path = dir.join(format!("{name}.tlrsnap"));
    tlr_persist::save_snapshot(&path, input.fingerprint, &snapshot).map_err(|e| e.to_string())
}

impl Env {
    /// Set up `kind` in a fresh `dir`: generate and size the programs,
    /// take their plain-VM digests, and for the serving workloads write
    /// producer snapshots, open the registry and (on `warm-fleet`) bind
    /// the daemon.
    pub fn setup(kind: Kind, seed: u64, dir: &Path) -> Result<Env, String> {
        let _ = std::fs::remove_dir_all(dir);
        let snapshots = dir.join("snapshots");
        std::fs::create_dir_all(&snapshots).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut inputs = Vec::new();
        for (k, w) in tlr_workloads::all().iter().enumerate() {
            match kind {
                Kind::PaperRepro => {
                    let mut sized = plan::sized_kernel(w, &[TRAINING_SEED], PAPER_BUDGET)?;
                    inputs.push(vec![Input::new(sized.remove(0), TRAINING_SEED)]);
                }
                Kind::WarmFleet => {
                    let mut sized = plan::sized_kernel(w, &[TRAINING_SEED], SERVE_BUDGET)?;
                    let input = Input::new(sized.remove(0), TRAINING_SEED);
                    produce(&input, w.name, &snapshots)?;
                    inputs.push(vec![input]);
                }
                Kind::CrossSeed => {
                    // The producer runs at the training seed; the pool's
                    // data seeds share its code, so its snapshot is their
                    // shape donor.
                    let pool = plan::pool_seeds(k);
                    let mut seeds = vec![TRAINING_SEED];
                    seeds.extend(&pool);
                    let mut sized = plan::sized_kernel(w, &seeds, SERVE_BUDGET)?.into_iter();
                    let producer = Input::new(sized.next().ok_or("no producer")?, TRAINING_SEED);
                    produce(&producer, w.name, &snapshots)?;
                    let slots: Vec<Input> = sized
                        .zip(pool)
                        .map(|(s, seed)| Input::new(s, seed))
                        .collect();
                    if slots.iter().any(|i| i.shape != producer.shape) {
                        return Err(format!("{}: pool programs differ in shape", w.name));
                    }
                    inputs.push(slots);
                }
            }
        }
        let registry = match kind {
            Kind::PaperRepro => None,
            Kind::WarmFleet | Kind::CrossSeed => Some(Arc::new(
                SnapshotRegistry::open(&snapshots, RegistryConfig::default()).map_err(serve_err)?,
            )),
        };
        let served = match (kind, &registry) {
            (Kind::WarmFleet, Some(registry)) => {
                let sock = dir.join("tlrd.sock");
                let daemon = Daemon::bind(&sock, Arc::clone(registry)).map_err(serve_err)?;
                let handle = daemon.handle();
                let thread = std::thread::spawn(move || daemon.run());
                Some(Served {
                    sock,
                    handle,
                    thread,
                })
            }
            _ => None,
        };
        Ok(Env {
            seed,
            inputs,
            registry,
            served,
            dir: dir.to_path_buf(),
        })
    }

    /// The daemon's socket, on `warm-fleet`.
    pub fn sock(&self) -> Option<&Path> {
        self.served.as_ref().map(|s| s.sock.as_path())
    }

    /// Stop the daemon (if any), wait for it, and remove the files.
    pub fn teardown(self) -> Result<(), String> {
        let mut result = Ok(());
        if let Some(served) = self.served {
            served.handle.shutdown();
            result = match served.thread.join() {
                Ok(run) => run.map_err(serve_err),
                Err(_) => Err("daemon thread panicked".to_string()),
            };
        }
        drop(self.registry);
        let _ = std::fs::remove_dir_all(&self.dir);
        result
    }
}

/// RTM counters summed over a run's engine requests.
#[derive(Clone, Copy, Debug, Default)]
pub struct RtmTally {
    /// Dynamic instructions (executed + skipped) of the engine runs.
    pub instrs: u64,
    /// Reuse tests.
    pub lookups: u64,
    /// Successful reuse tests.
    pub hits: u64,
    /// Traces stored.
    pub stores: u64,
    /// Stores rejected as duplicates.
    pub duplicate_stores: u64,
    /// Entries evicted.
    pub evictions: u64,
    /// Candidates rejected on live-in values.
    pub value_rejects: u64,
}

impl RtmTally {
    fn add(&mut self, stats: &EngineStats) {
        self.instrs += stats.total();
        self.lookups += stats.rtm.lookups;
        self.hits += stats.rtm.hits;
        self.stores += stats.rtm.stores;
        self.duplicate_stores += stats.rtm.duplicate_stores;
        self.evictions += stats.rtm.evictions;
        self.value_rejects += stats.rtm.value_rejects;
    }

    fn merge(&mut self, other: &RtmTally) {
        self.instrs += other.instrs;
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.stores += other.stores;
        self.duplicate_stores += other.duplicate_stores;
        self.evictions += other.evictions;
        self.value_rejects += other.value_rejects;
    }
}

/// What one request did.
#[derive(Default)]
pub struct Outcome {
    /// Dynamic instructions simulated (executed + skipped).
    pub instrs: u64,
    /// Engine statistics, for engine requests.
    pub engine: Option<EngineStats>,
    /// (skipped, total) when the request counts towards `reused_pct`.
    pub reused: Option<(u64, u64)>,
    /// Why the request failed: an error or a wrong final state.
    pub failure: Option<String>,
}

impl Outcome {
    fn failed(why: String) -> Self {
        Outcome {
            failure: Some(why),
            ..Outcome::default()
        }
    }
}

/// One client's share of a run.
#[derive(Default)]
pub struct ClientOut {
    /// In a traced run, (request, traced, latency ms) of every
    /// completed request.
    pub paired_ms: Vec<(Req, bool, f64)>,
    /// Dynamic instructions simulated by the timed requests.
    pub instrs: u64,
    /// Latency (ms, checks excluded) of every completed timed request.
    pub latencies_ms: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Failure descriptions.
    pub failures: Vec<String>,
    /// Recorded spans.
    pub spans: Vec<Span>,
    /// RTM counters of the engine requests.
    pub rtm: RtmTally,
    /// (skipped, total) over the requests counted in `reused_pct`.
    pub reused: (u64, u64),
}

/// When a run measures: requests that start before `measured_from` warm
/// the system up and are checked but not timed; no request starts after
/// `deadline` unless the workload needs it to finish its fixed prefix.
#[derive(Clone, Copy)]
pub struct Window {
    /// Start of the timed phase.
    pub measured_from: Instant,
    /// End of the timed phase.
    pub deadline: Instant,
    /// Trace every other timed request.
    pub trace: bool,
    /// Count the reuse of warm-up requests in `reused_pct` too: the
    /// cross-seed workload picks its counted requests itself.
    pub reuse_in_warm_up: bool,
}

/// Run `clients` closed-loop clients: each takes its next request from
/// `take` as soon as the previous one completes, until `take` says
/// stop. In a traced run every other request is traced, so the
/// untraced half measures the tracer's own overhead. Returns the
/// clients' results and the timed phase's length in seconds.
pub fn drive(
    clients: usize,
    window: Window,
    take: &(dyn Fn(usize) -> Option<(u64, Req)> + Sync),
    serve: &(dyn Fn(&mut Recorder, u64, Req) -> Outcome + Sync),
) -> (Vec<ClientOut>, f64) {
    let start = window.measured_from;
    let outs = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut out = ClientOut::default();
                    let mut rec = Recorder::new(start);
                    while let Some((i, req)) = take(client) {
                        let began = Instant::now();
                        let timed = began >= start;
                        let traced = window.trace && timed && i % 2 == 0;
                        out.attempted += 1;
                        rec.begin(i, traced);
                        let outcome = serve(&mut rec, i, req);
                        let checks_ns = rec.end();
                        let ms = (began.elapsed().as_nanos() as u64 - checks_ns) as f64 / 1e6;
                        if let Some(why) = outcome.failure {
                            out.failures.push(format!("request {i} {req:?}: {why}"));
                            continue;
                        }
                        if let Some((skipped, total)) = outcome.reused {
                            if timed || window.reuse_in_warm_up {
                                out.reused.0 += skipped;
                                out.reused.1 += total;
                            }
                        }
                        if !timed {
                            continue;
                        }
                        out.latencies_ms.push(ms);
                        if window.trace {
                            out.paired_ms.push((req, traced, ms));
                        }
                        out.instrs += outcome.instrs;
                        if let Some(stats) = &outcome.engine {
                            out.rtm.add(stats);
                        }
                    }
                    out.spans = rec.spans;
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (outs, start.elapsed().as_secs_f64())
}

/// Tracing overhead (%): per request kind, the mean latency of its
/// traced runs over that of its untraced runs, minus one; the median
/// over every kind run both ways. Pairing by kind keeps the cost mix
/// of the two halves from passing for overhead.
pub fn tracing_overhead_pct(outs: &[ClientOut]) -> f64 {
    let mut by_req: HashMap<Req, [(f64, u32); 2]> = HashMap::new();
    for &(req, traced, ms) in outs.iter().flat_map(|o| &o.paired_ms) {
        let side = &mut by_req.entry(req).or_default()[traced as usize];
        side.0 += ms;
        side.1 += 1;
    }
    let ratios: Vec<f64> = by_req
        .values()
        .filter(|[untraced, traced]| untraced.1 > 0 && traced.1 > 0)
        .map(|[untraced, traced]| {
            (traced.0 / f64::from(traced.1)) / (untraced.0 / f64::from(untraced.1))
        })
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    100.0 * (crate::stats::median(&ratios) - 1.0)
}

/// Sum of the clients' RTM counters.
pub fn rtm_total(outs: &[ClientOut]) -> RtmTally {
    let mut total = RtmTally::default();
    for out in outs {
        total.merge(&out.rtm);
    }
    total
}

/// Check an engine request's end state against its plain-VM digest.
fn check_engine(
    rec: &mut Recorder,
    stats: Result<EngineStats, tlr_vm::VmError>,
    engine: &TraceReuseEngine,
    input: &Input,
) -> Result<EngineStats, String> {
    let stats = stats.map_err(vm_err)?;
    if !stats.halted {
        return Err("did not halt within its budget".into());
    }
    let digest = rec.check("bench.digest", || engine.vm().state_digest());
    if digest != input.sized.digest {
        return Err(format!(
            "state digest {digest:016x} != plain-VM {:016x}",
            input.sized.digest
        ));
    }
    Ok(stats)
}

fn engine_outcome(stats: EngineStats, counted: bool) -> Outcome {
    Outcome {
        instrs: stats.total(),
        reused: counted.then_some((stats.skipped, stats.total())),
        engine: Some(stats),
        ..Outcome::default()
    }
}

/// The limit-study results of `paper-repro`'s first pass, per kernel.
pub type Limits = Mutex<Vec<Option<LimitResult>>>;

/// Run `paper-repro` until the job that is under way at `deadline`
/// completes, and at least one whole job.
pub fn run_paper(
    env: &Env,
    clients: usize,
    window: Window,
) -> (Vec<ClientOut>, f64, Vec<Option<LimitResult>>) {
    let job_len = plan::paper_job().len() as u64;
    let queue = plan::paper_queue(env.seed, 16);
    // The run ends at a job boundary: the first request taken after the
    // deadline fixes the end of the job it falls in, so every timed run
    // measures whole jobs and the same mix of cells.
    let next = AtomicU64::new(0);
    let stop_at = AtomicU64::new(u64::MAX);
    let take = |_client: usize| {
        let i = next.fetch_add(1, Ordering::SeqCst);
        if Instant::now() >= window.deadline {
            stop_at.fetch_min(i.div_ceil(job_len).max(1) * job_len, Ordering::SeqCst);
        }
        (i < stop_at.load(Ordering::SeqCst)).then(|| (i, queue[(i % queue.len() as u64) as usize]))
    };
    let limits: Limits = Mutex::new((0..env.inputs.len()).map(|_| None).collect());
    let first_seen: Mutex<HashMap<Req, (u64, u64, u64)>> = Mutex::new(HashMap::new());
    let serve = |rec: &mut Recorder, i: u64, req: Req| -> Outcome {
        let first_pass = i < job_len;
        match req {
            Req::Limit { kernel } => {
                let input = &env.inputs[kernel][0];
                let (run, vm, result) = rec.span("limits.run", || {
                    let mut vm = Vm::new(&input.sized.program);
                    let mut sink = LimitStudySink::new(LimitConfig::default(), &Alpha21164);
                    let run = vm.run(PAPER_BUDGET, &mut sink);
                    (run, vm, sink.result())
                });
                let digest = rec.check("bench.digest", || vm.state_digest());
                rec.span("limits.drop", || drop(vm));
                match run {
                    Err(e) => Outcome::failed(e.to_string()),
                    Ok(RunOutcome::BudgetExhausted { .. }) => {
                        Outcome::failed("did not halt within its budget".into())
                    }
                    Ok(_) if digest != input.sized.digest => {
                        Outcome::failed(format!("state digest {digest:016x} differs"))
                    }
                    Ok(run) => {
                        if first_pass {
                            limits.lock().expect("a client panicked")[kernel] = Some(result);
                        }
                        Outcome {
                            instrs: run.executed(),
                            ..Outcome::default()
                        }
                    }
                }
            }
            Req::Cell {
                kernel,
                rtm,
                heuristic,
            } => {
                let input = &env.inputs[kernel][0];
                let config = plan::paper_config(rtm, heuristic);
                let (stats, engine) = rec.span("engine.run", || {
                    let mut engine = TraceReuseEngine::new(&input.sized.program, config);
                    (engine.run(PAPER_BUDGET), engine)
                });
                let checked = check_engine(rec, stats, &engine, input);
                rec.span("engine.drop", || drop(engine));
                let stats = match checked {
                    Ok(stats) => stats,
                    Err(why) => return Outcome::failed(why),
                };
                // Cold runs without persistence are deterministic: a
                // repeated cell must decide exactly as its first run.
                let key = (stats.executed, stats.skipped, stats.reuse_ops);
                let first = *first_seen
                    .lock()
                    .expect("a client panicked")
                    .entry(req)
                    .or_insert(key);
                if first != key {
                    return Outcome::failed(format!("cell repeated as {key:?}, first {first:?}"));
                }
                engine_outcome(stats, first_pass)
            }
            Req::Serve { .. } => Outcome::failed("not a paper-repro request".into()),
        }
    };
    let (outs, wall) = drive(clients, window, &take, &serve);
    (outs, wall, limits.into_inner().expect("a client panicked"))
}

/// Run `warm-fleet` until `deadline`: each request is one
/// `tlrsim run --remote` — connect, fetch by shape, warm-start, run,
/// export, publish back.
pub fn run_fleet(
    env: &Env,
    clients: usize,
    window: Window,
) -> Result<(Vec<ClientOut>, f64), String> {
    let sock = env.sock().ok_or("warm-fleet has no daemon")?;
    let rounds = 4096;
    let sequences: Vec<Vec<Req>> = (0..clients)
        .map(|c| plan::serve_sequence(Kind::WarmFleet, env.seed, c, clients, rounds))
        .collect();
    let next: Vec<AtomicU64> = (0..clients).map(|_| AtomicU64::new(0)).collect();
    let take = |client: usize| {
        let i = next[client].fetch_add(1, Ordering::Relaxed);
        let seq = &sequences[client];
        (Instant::now() < window.deadline).then(|| (i, seq[(i % seq.len() as u64) as usize]))
    };
    let config = plan::serve_config();
    let serve = |rec: &mut Recorder, _i: u64, req: Req| -> Outcome {
        let Req::Serve { kernel, slot } = req else {
            return Outcome::failed("not a serving request".into());
        };
        let input = &env.inputs[kernel][slot];
        let result = (|| -> Result<EngineStats, String> {
            let remote = rec
                .span("remote.connect", || RemoteRegistry::connect(sock))
                .map_err(serve_err)?;
            let warm = rec
                .span("remote.fetch", || {
                    remote.get_by_shape(input.fingerprint, input.shape)
                })
                .map_err(serve_err)?;
            let mut engine = rec.span("engine.import", || match &warm {
                Some(snapshot) => {
                    TraceReuseEngine::new_warm(&input.sized.program, config, snapshot)
                }
                None => TraceReuseEngine::new(&input.sized.program, config),
            });
            engine.set_source_run(input.seed);
            let stats = rec.span("engine.run", || engine.run(SERVE_BUDGET));
            let stats = check_engine(rec, stats, &engine, input)?;
            let exported = rec.span("engine.export", || engine.export_rtm());
            if let Some(mut snapshot) = exported {
                snapshot.shape = input.shape;
                rec.span("remote.publish", || {
                    remote.publish(input.fingerprint, &snapshot)
                })
                .map_err(serve_err)?;
            }
            rec.span("engine.drop", || drop((engine, warm)));
            rec.span("remote.close", || drop(remote));
            Ok(stats)
        })();
        match result {
            Ok(stats) => engine_outcome(stats, true),
            Err(why) => Outcome::failed(why),
        }
    };
    Ok(drive(clients, window, &take, &serve))
}

/// Run `cross-seed` until `deadline`, and at least [`PREFIX_ROUNDS`]
/// rounds per client: each request is one `tlrsim serve` step — fetch
/// by shape, warm run, publish.
pub fn run_cross_seed(
    env: &Env,
    clients: usize,
    window: Window,
) -> Result<(Vec<ClientOut>, f64), String> {
    let registry = env.registry.as_ref().ok_or("cross-seed has no registry")?;
    let rounds = 4096;
    let sequences: Vec<Vec<Req>> = (0..clients)
        .map(|c| plan::serve_sequence(Kind::CrossSeed, env.seed, c, clients, rounds))
        .collect();
    let prefix: Vec<u64> = (0..clients)
        .map(|c| (plan::owned_kernels(c, clients).len() * PREFIX_ROUNDS) as u64)
        .collect();
    let next: Vec<AtomicU64> = (0..clients).map(|_| AtomicU64::new(0)).collect();
    // Request indices are per client; the client is recovered from the
    // index's top bits so `serve` can tell prefix requests apart.
    let take = |client: usize| {
        let i = next[client].fetch_add(1, Ordering::Relaxed);
        let seq = &sequences[client];
        (i < prefix[client] || Instant::now() < window.deadline).then(|| {
            (
                (client as u64) << 48 | i,
                seq[(i % seq.len() as u64) as usize],
            )
        })
    };
    let config = plan::serve_config();
    let serve = |rec: &mut Recorder, tagged: u64, req: Req| -> Outcome {
        let Req::Serve { kernel, slot } = req else {
            return Outcome::failed("not a serving request".into());
        };
        let (client, i) = ((tagged >> 48) as usize, tagged & ((1 << 48) - 1));
        let input = &env.inputs[kernel][slot];
        let result = (|| -> Result<EngineStats, String> {
            let warm = rec
                .span("registry.get_by_shape", || {
                    registry.get_by_shape(input.fingerprint, input.shape)
                })
                .map_err(serve_err)?;
            let mut engine = rec.span("engine.import", || match &warm {
                Some(snapshot) => {
                    TraceReuseEngine::new_warm(&input.sized.program, config, snapshot)
                }
                None => TraceReuseEngine::new(&input.sized.program, config),
            });
            engine.set_source_run(input.seed);
            let stats = rec.span("engine.run", || engine.run(SERVE_BUDGET));
            let stats = check_engine(rec, stats, &engine, input)?;
            let mut snapshot = rec
                .span("engine.export", || engine.export_rtm())
                .ok_or("engine exports no RTM")?;
            snapshot.shape = input.shape;
            rec.span("registry.publish", || {
                registry.publish(input.fingerprint, &snapshot)
            })
            .map_err(serve_err)?;
            rec.span("engine.drop", || drop((engine, warm, snapshot)));
            Ok(stats)
        })();
        match result {
            Ok(stats) => engine_outcome(stats, i < prefix[client]),
            Err(why) => Outcome::failed(why),
        }
    };
    Ok(drive(clients, window, &take, &serve))
}

/// Limit study of each kernel's slot-0 program at its request budget:
/// the fidelity pass behind `paper_err_pct` on the serving workloads.
pub fn limit_pass(env: &Env) -> Result<Vec<Option<LimitResult>>, String> {
    env.inputs
        .iter()
        .map(|slots| {
            let mut vm = Vm::new(&slots[0].sized.program);
            let mut sink = LimitStudySink::new(LimitConfig::default(), &Alpha21164);
            vm.run(SERVE_BUDGET, &mut sink).map_err(vm_err)?;
            Ok(Some(sink.result()))
        })
        .collect()
}

/// Mean absolute relative error (%) of the Figure 3, 4a, 5a, 6a, 6b
/// and 7 values against the paper's, over every kernel.
pub fn paper_err_pct(limits: &[Option<LimitResult>]) -> Option<f64> {
    let mut errors = Vec::new();
    for (w, limit) in tlr_workloads::all().iter().zip(limits) {
        let r = limit.as_ref()?;
        let p = &w.paper;
        for (measured, paper) in [
            (r.reusability_pct, p.reusability_pct),
            (r.ilr_speedup_inf(1), p.ilr_speedup_inf),
            (r.ilr_speedup_win(1), p.ilr_speedup_w256),
            (r.tlr_speedup_inf(1), p.tlr_speedup_inf),
            (r.tlr_speedup_win(1), p.tlr_speedup_w256),
            (r.trace_stats.avg_size(), p.trace_size),
        ] {
            if paper != 0.0 {
                errors.push((measured - paper).abs() / paper.abs());
            }
        }
    }
    Some(100.0 * errors.iter().sum::<f64>() / errors.len().max(1) as f64)
}
