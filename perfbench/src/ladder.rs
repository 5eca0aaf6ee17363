//! Per-layer timings from the benchmark's side of each layer's public
//! API: the engine ladder, the snapshot codec, and a serving probe.
//!
//! The ladder runs the same cells (a program with an engine
//! configuration) and budget five (plus two) times, each rung adding one
//! layer, so that differences between rungs are per-layer costs:
//!
//! 1. `Vm::run_fast`
//! 2. `Vm::run` + `NullSink` (materializing `DynInstr`s)
//! 3. \+ `Collector::on_executed`
//! 4. \+ `ReuseTraceMemory::insert`
//! 5. the full cold engine (`TraceReuseEngine::run`)
//!
//! plus `Vm::run` + `LimitStudySink` (limits rung) and a warm engine
//! seeded from rung 5's export. The full engine minus rung 4 is the
//! *ladder gap*: lookup, reuse apply and bookkeeping, which no rung
//! isolates.

use crate::stats::{median, ratio};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tlr_asm::Program;
use tlr_core::{
    Collector, EngineConfig, FiniteIlrBuffer, Heuristic, LimitConfig, LimitStudySink,
    ReuseTraceMemory, RtmSnapshot, TraceReuseEngine,
};
use tlr_isa::{Alpha21164, DynInstr, NullSink, StreamSink};
use tlr_serve::{
    Daemon, RegistryConfig, RegistryStats, RemoteRegistry, SnapshotRegistry, SpillKind,
};
use tlr_vm::Vm;

/// Cumulative nanoseconds per dynamic instruction of each rung, and
/// what the rungs counted.
#[derive(Clone, Debug, Default)]
pub struct Ladder {
    /// Rung 1.
    pub fast_ns: f64,
    /// Rung 2.
    pub observe_ns: f64,
    /// `Vm::run` + `LimitStudySink`.
    pub limit_ns: f64,
    /// Rung 3.
    pub collect_ns: f64,
    /// Rung 4.
    pub insert_ns: f64,
    /// Rung 5.
    pub engine_ns: f64,
    /// Warm engine over rung 5's exports.
    pub warm_ns: f64,
    /// Traces the collector emitted per 1000 instructions.
    pub traces_per_kinstr: f64,
    /// Rung 4 minus rung 3, per emitted trace.
    pub insert_ns_per_trace: f64,
    /// `TraceReuseEngine::new_warm` per program (µs, median).
    pub import_us: f64,
    /// `TraceReuseEngine::export_rtm` per program (µs, median).
    pub export_us: f64,
    /// Rung 5's export per cell.
    pub cold_exports: Vec<RtmSnapshot>,
    /// The warm runs' exports per cell.
    pub warm_exports: Vec<RtmSnapshot>,
}

fn ilr_for(config: &EngineConfig) -> Option<FiniteIlrBuffer> {
    match config.heuristic {
        Heuristic::IlrNe | Heuristic::IlrExp => Some(FiniteIlrBuffer::new(config.rtm.geometry)),
        Heuristic::FixedExp(_) | Heuristic::BasicBlock => None,
    }
}

/// Rungs 3 and 4: the collector alone, or feeding an RTM.
struct CollectSink {
    collector: Collector,
    rtm: Option<ReuseTraceMemory>,
    traces: u64,
}

impl StreamSink for CollectSink {
    fn observe(&mut self, d: &DynInstr) {
        let records = self.collector.on_executed(d);
        self.traces += records.len() as u64;
        if let Some(rtm) = self.rtm.as_mut() {
            for record in records {
                rtm.insert(record);
            }
        }
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Run the ladder `reps` times over `cells` and keep each rung's
/// median. Every program must halt within `budget`.
pub fn run_ladder(
    cells: &[(&Program, EngineConfig)],
    budget: u64,
    reps: usize,
) -> Result<Ladder, String> {
    let err = |e: tlr_vm::VmError| e.to_string();
    let mut rungs: Vec<[f64; 7]> = Vec::new();
    let (mut instrs, mut traces) = (0u64, 0u64);
    let (mut import_us, mut export_us) = (Vec::new(), Vec::new());
    let mut out = Ladder::default();
    for rep in 0..reps {
        let mut t = [0.0f64; 7];
        instrs = 0;
        traces = 0;
        let mut cold_exports = Vec::new();
        let mut warm_exports = Vec::new();
        for &(program, config) in cells {
            let mut vm = Vm::new(program);
            let start = Instant::now();
            instrs += vm.run_fast(budget).map_err(err)?.executed();
            t[0] += secs(start);

            let mut vm = Vm::new(program);
            let start = Instant::now();
            vm.run(budget, &mut NullSink).map_err(err)?;
            t[1] += secs(start);

            let mut vm = Vm::new(program);
            let mut sink = LimitStudySink::new(LimitConfig::default(), &Alpha21164);
            let start = Instant::now();
            vm.run(budget, &mut sink).map_err(err)?;
            t[2] += secs(start);
            drop(sink.result());

            for (rung, rtm) in [
                (3, None),
                (
                    4,
                    Some(ReuseTraceMemory::new_with(config.rtm, config.policy)),
                ),
            ] {
                let mut vm = Vm::new(program);
                let mut sink = CollectSink {
                    collector: Collector::new(config.heuristic, config.caps, ilr_for(&config)),
                    rtm,
                    traces: 0,
                };
                let start = Instant::now();
                vm.run(budget, &mut sink).map_err(err)?;
                t[rung] += secs(start);
                if rung == 3 {
                    traces += sink.traces;
                }
            }

            let mut engine = TraceReuseEngine::new(program, config);
            let start = Instant::now();
            engine.run(budget).map_err(err)?;
            t[5] += secs(start);
            let start = Instant::now();
            let cold = engine.export_rtm().ok_or("engine exports no RTM")?;
            export_us.push(secs(start) * 1e6);

            let start = Instant::now();
            let mut warm = TraceReuseEngine::new_warm(program, config, &cold);
            import_us.push(secs(start) * 1e6);
            let start = Instant::now();
            warm.run(budget).map_err(err)?;
            t[6] += secs(start);
            if rep == 0 {
                warm_exports.push(warm.export_rtm().ok_or("engine exports no RTM")?);
                cold_exports.push(cold);
            }
        }
        if rep == 0 {
            out.cold_exports = cold_exports;
            out.warm_exports = warm_exports;
        }
        rungs.push(t);
    }
    let per_instr = |rung: usize| {
        let times: Vec<f64> = rungs.iter().map(|t| t[rung]).collect();
        median(&times) * 1e9 / instrs.max(1) as f64
    };
    out.fast_ns = per_instr(0);
    out.observe_ns = per_instr(1);
    out.limit_ns = per_instr(2);
    out.collect_ns = per_instr(3);
    out.insert_ns = per_instr(4);
    out.engine_ns = per_instr(5);
    out.warm_ns = per_instr(6);
    out.traces_per_kinstr = ratio(traces as f64 * 1e3, instrs as f64);
    out.insert_ns_per_trace = ratio(
        (out.insert_ns - out.collect_ns) * instrs as f64,
        traces as f64,
    );
    out.import_us = median(&import_us);
    out.export_us = median(&export_us);
    Ok(out)
}

/// Snapshot codec throughput and merge cost on a workload's snapshots.
#[derive(Clone, Debug, Default)]
pub struct Codec {
    /// `write_snapshot` MB/s.
    pub encode_mb_s: f64,
    /// `read_snapshot` MB/s.
    pub decode_mb_s: f64,
    /// `RtmSnapshot::merge_detailed` µs per 1000 input traces.
    pub merge_us_per_ktrace: f64,
}

/// Time the codec over `snapshots` (repeated until `min_secs` of each
/// direction has been measured), and merging each pair in `pairs`.
pub fn run_codec(
    snapshots: &[(u64, &RtmSnapshot)],
    pairs: &[(&RtmSnapshot, &RtmSnapshot)],
    min_secs: f64,
) -> Result<Codec, String> {
    let (mut bytes, mut enc, mut dec) = (0u64, 0.0f64, 0.0f64);
    while enc < min_secs || dec < min_secs {
        for &(fingerprint, snapshot) in snapshots {
            let mut buf = Vec::new();
            let start = Instant::now();
            tlr_persist::snapshot::write_snapshot(&mut buf, fingerprint, snapshot)
                .map_err(|e| e.to_string())?;
            enc += secs(start);
            let start = Instant::now();
            let (_, back) =
                tlr_persist::snapshot::read_snapshot(&mut buf.as_slice(), Some(fingerprint))
                    .map_err(|e| e.to_string())?;
            dec += secs(start);
            if back.len() != snapshot.len() {
                return Err("snapshot changed size through the codec".into());
            }
            bytes += buf.len() as u64;
        }
    }
    let (mut merge_s, mut merged_traces) = (0.0f64, 0u64);
    while merge_s < min_secs {
        for &(a, b) in pairs {
            let inputs = [a.clone(), b.clone()];
            let start = Instant::now();
            let outcome = RtmSnapshot::merge_detailed(&inputs).map_err(|e| e.to_string())?;
            merge_s += secs(start);
            merged_traces += outcome.input_traces as u64;
        }
    }
    Ok(Codec {
        encode_mb_s: ratio(bytes as f64 / 1e6, enc),
        decode_mb_s: ratio(bytes as f64 / 1e6, dec),
        merge_us_per_ktrace: ratio(merge_s * 1e6, merged_traces as f64 / 1e3),
    })
}

/// Spill outcomes, tallied.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpillTally {
    /// Spills attempted (one per publish).
    pub spills: u64,
    /// Bytes written by all spills.
    pub bytes: u64,
    /// Delta segments written.
    pub deltas: u64,
    /// Compactions performed.
    pub compactions: u64,
}

impl SpillTally {
    /// Count one spill.
    pub fn add(&mut self, kind: SpillKind, bytes: u64) {
        self.spills += 1;
        self.bytes += bytes;
        match kind {
            SpillKind::Delta => self.deltas += 1,
            SpillKind::Compacted => self.compactions += 1,
            SpillKind::Base | SpillKind::NoChange => {}
        }
    }
}

/// One program's identity and two snapshots to publish alternately.
pub struct ProbeItem<'a> {
    /// Value fingerprint.
    pub fingerprint: u64,
    /// Shape fingerprint.
    pub shape: u64,
    /// Snapshots published on even / odd rounds.
    pub snapshots: [&'a RtmSnapshot; 2],
}

/// Timings (µs) and counts of the serving probe.
#[derive(Debug, Default)]
pub struct ServeProbe {
    /// `SnapshotRegistry::get_by_shape`.
    pub get_us: Vec<f64>,
    /// `SnapshotRegistry::publish`.
    pub publish_us: Vec<f64>,
    /// `SnapshotRegistry::spill`.
    pub spill_us: Vec<f64>,
    /// Spill outcomes.
    pub spills: SpillTally,
    /// Registry counters over the in-process phase.
    pub registry: RegistryStats,
    /// In-process fetches issued.
    pub fetches: u64,
    /// `RemoteRegistry::connect`.
    pub connect_us: Vec<f64>,
    /// `RemoteRegistry::get_by_shape`.
    pub fetch_us: Vec<f64>,
    /// `RemoteRegistry::publish`.
    pub remote_publish_us: Vec<f64>,
    /// `RemoteRegistry::stats`: the bare socket round trip.
    pub rtt_us: Vec<f64>,
    /// Encoded size (KB) of each fetched snapshot.
    pub fetch_kb: Vec<f64>,
}

fn timed_us<T>(samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    samples.push(secs(start) * 1e6);
    out
}

/// Encoded size of `snapshot` in KB.
pub fn encoded_kb(fingerprint: u64, snapshot: &RtmSnapshot) -> f64 {
    let mut buf = Vec::new();
    match tlr_persist::snapshot::write_snapshot(&mut buf, fingerprint, snapshot) {
        Ok(()) => buf.len() as f64 / 1e3,
        Err(_) => 0.0,
    }
}

/// Exercise the registry (get → publish → spill) and then the daemon
/// (connect → fetch → publish, plus `Stats` round trips) for `rounds`
/// rounds over `items`, in a fresh snapshot directory `dir`.
pub fn run_serve_probe(
    dir: &Path,
    items: &[ProbeItem],
    rounds: usize,
) -> Result<ServeProbe, String> {
    let e = |e: tlr_serve::ServeError| e.to_string();
    let _ = std::fs::remove_dir_all(dir);
    let snapshots = dir.join("snapshots");
    std::fs::create_dir_all(&snapshots).map_err(|e| e.to_string())?;
    let registry =
        Arc::new(SnapshotRegistry::open(&snapshots, RegistryConfig::default()).map_err(e)?);
    let mut out = ServeProbe::default();
    for round in 0..rounds {
        for item in items {
            timed_us(&mut out.get_us, || {
                registry.get_by_shape(item.fingerprint, item.shape)
            })
            .map_err(e)?;
            out.fetches += 1;
            let mut snapshot = item.snapshots[round % 2].clone();
            snapshot.shape = item.shape;
            timed_us(&mut out.publish_us, || {
                registry.publish(item.fingerprint, &snapshot)
            })
            .map_err(e)?;
            let spill =
                timed_us(&mut out.spill_us, || registry.spill(item.fingerprint)).map_err(e)?;
            out.spills.add(spill.kind, spill.bytes_written);
        }
    }
    out.registry = registry.stats();

    let sock = dir.join("probe.sock");
    let daemon = Daemon::bind(&sock, Arc::clone(&registry)).map_err(e)?;
    let handle = daemon.handle();
    let server = std::thread::spawn(move || daemon.run());
    let result = (|| -> Result<(), String> {
        for round in 0..rounds {
            for item in items {
                let remote =
                    timed_us(&mut out.connect_us, || RemoteRegistry::connect(&sock)).map_err(e)?;
                let fetched = timed_us(&mut out.fetch_us, || {
                    remote.get_by_shape(item.fingerprint, item.shape)
                })
                .map_err(e)?;
                if let Some(snapshot) = fetched {
                    out.fetch_kb.push(encoded_kb(item.fingerprint, &snapshot));
                }
                let mut snapshot = item.snapshots[round % 2].clone();
                snapshot.shape = item.shape;
                timed_us(&mut out.remote_publish_us, || {
                    remote.publish(item.fingerprint, &snapshot)
                })
                .map_err(e)?;
                timed_us(&mut out.rtt_us, || remote.stats()).map_err(e)?;
            }
        }
        Ok(())
    })();
    handle.shutdown();
    let joined = server.join();
    result?;
    match joined {
        Ok(served) => served.map_err(e)?,
        Err(_) => return Err("probe daemon panicked".into()),
    }
    Ok(out)
}

/// `Stats` round trips (µs) against the daemon at `sock`.
pub fn rtt_probe(sock: &Path, count: usize) -> Result<Vec<f64>, String> {
    let remote = RemoteRegistry::connect(sock).map_err(|e| e.to_string())?;
    let mut samples = Vec::with_capacity(count);
    for _ in 0..count {
        timed_us(&mut samples, || remote.stats()).map_err(|e| e.to_string())?;
    }
    Ok(samples)
}
