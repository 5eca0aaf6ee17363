//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload paper-repro|warm-fleet|cross-seed \
//!           --seed N --seconds S --trace 0|1 [--work-dir DIR]
//! perfbench --list-metrics
//! ```
//!
//! Human-readable results go to standard output first; the last line
//! is one JSON object with the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). The exit code is nonzero when any
//! request failed or ended in a wrong state. See `README.md`.

mod bench;
mod ladder;
mod plan;
mod report;
mod spans;
mod stats;

use bench::{ClientOut, Env};
use ladder::{Codec, Ladder, ProbeItem, ServeProbe};
use plan::{Kind, PAPER_BUDGET, SERVE_BUDGET};
use stats::{median, percentile, ratio};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tlr_serve::RegistryStats;

/// Untimed warm-up of the serving workloads before `--seconds` starts.
const WARM_UP_S: f64 = 3.0;
/// `setup_s` is the median of two batches of set-ups, one before and one
/// after the timed phase, each of at least this many set-ups...
const SETUP_REPS: usize = 5;
/// ...repeated for at least this long, so that one slow spell of the
/// host cannot hold every repetition.
const SETUP_MIN_S: f64 = 1.5;
/// Ladder repetitions in a traced run; each rung keeps its median.
const LADDER_REPS: usize = 3;
/// Rounds of the serving probe over the workload's programs.
const PROBE_ROUNDS: usize = 24;
/// `Stats` round trips timed against the `warm-fleet` daemon.
const RTT_SAMPLES: usize = 1000;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    clients: usize,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--list-metrics" {
            for (name, unit) in report::END_TO_END {
                println!("end_to_end {name} {unit}");
            }
            for (name, unit) in report::PER_LAYER {
                println!("per_layer {name} {unit}");
            }
            return Ok(None);
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    Ok(Some(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        work_dir,
        // Two clients, or one on a single-core machine.
        clients: std::thread::available_parallelism().map_or(2, |n| n.get().min(2)),
    }))
}

/// Peak resident set size of this process (MB), from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything a run measured, before it becomes metrics.
struct Run {
    outs: Vec<ClientOut>,
    wall_s: f64,
    setup_s: Vec<f64>,
    paper_err_pct: f64,
    registry_stats: Option<RegistryStats>,
    layers: Option<Layers>,
}

/// What only a traced run measures.
struct Layers {
    ladder: Ladder,
    codec: Codec,
    probe: ServeProbe,
    rtt_us: Vec<f64>,
    reduced: spans::Reduced,
    spans_file: PathBuf,
}

fn execute(args: &Args, env: &Env) -> Result<Run, String> {
    // The serving workloads carry state (resident entries, snapshot
    // files, the file system's write-back) that settles in the first
    // seconds; paper-repro's cold runs start settled.
    let warm_up = match args.kind {
        Kind::PaperRepro => 0.0,
        Kind::WarmFleet | Kind::CrossSeed => WARM_UP_S,
    };
    let measured_from = Instant::now() + Duration::from_secs_f64(warm_up);
    let window = bench::Window {
        measured_from,
        deadline: measured_from + Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        reuse_in_warm_up: args.kind == Kind::CrossSeed,
    };
    let (outs, wall_s, limits) = match args.kind {
        Kind::PaperRepro => {
            let (outs, wall, limits) = bench::run_paper(env, args.clients, window);
            (outs, wall, Some(limits))
        }
        Kind::WarmFleet => {
            let (outs, wall) = bench::run_fleet(env, args.clients, window)?;
            (outs, wall, None)
        }
        Kind::CrossSeed => {
            let (outs, wall) = bench::run_cross_seed(env, args.clients, window)?;
            (outs, wall, None)
        }
    };
    // Set-up opens a fresh registry, so its counters cover exactly the
    // loop.
    let registry_stats = env.registry.as_ref().map(|r| r.stats());
    let limits = match limits {
        Some(limits) => limits,
        None => bench::limit_pass(env)?,
    };
    let paper_err_pct = bench::paper_err_pct(&limits).ok_or("a limit study did not complete")?;
    let layers = if args.trace {
        Some(measure_layers(args, env, &outs)?)
    } else {
        None
    };
    Ok(Run {
        outs,
        wall_s,
        setup_s: Vec::new(),
        paper_err_pct,
        registry_stats,
        layers,
    })
}

fn measure_layers(args: &Args, env: &Env, outs: &[ClientOut]) -> Result<Layers, String> {
    let budget = match args.kind {
        Kind::PaperRepro => PAPER_BUDGET,
        _ => SERVE_BUDGET,
    };
    // The first cells are the kernels in order, so zipping the inputs
    // with the ladder's exports pairs each kernel with its own export.
    let cells: Vec<_> = plan::ladder_cells(args.kind, env.inputs.len())
        .into_iter()
        .map(|(kernel, config)| (&env.inputs[kernel][0].sized.program, config))
        .collect();
    let ladder = ladder::run_ladder(&cells, budget, LADDER_REPS)?;

    // The codec runs on the workload's own snapshots: the registry's
    // resident state after the run on the serving workloads, the
    // ladder's cold exports on paper-repro.
    let mut resident = Vec::new();
    if let Some(registry) = &env.registry {
        for slots in &env.inputs {
            for input in slots {
                if let Some(snapshot) =
                    registry.get(input.fingerprint).map_err(|e| e.to_string())?
                {
                    resident.push((input.fingerprint, snapshot));
                }
            }
        }
    }
    let mut snapshots: Vec<(u64, &tlr_core::RtmSnapshot)> =
        resident.iter().map(|(fp, s)| (*fp, s.as_ref())).collect();
    if snapshots.is_empty() {
        snapshots = env
            .inputs
            .iter()
            .zip(&ladder.cold_exports)
            .map(|(slots, s)| (slots[0].fingerprint, s))
            .collect();
    }
    let pairs: Vec<_> = ladder
        .cold_exports
        .iter()
        .zip(&ladder.warm_exports)
        .collect();
    let codec = ladder::run_codec(&snapshots, &pairs, 0.05)?;

    let items: Vec<ProbeItem> = env
        .inputs
        .iter()
        .zip(ladder.cold_exports.iter().zip(&ladder.warm_exports))
        .map(|(slots, (cold, warm))| ProbeItem {
            fingerprint: slots[0].fingerprint,
            shape: slots[0].shape,
            snapshots: [cold, warm],
        })
        .collect();
    let probe = ladder::run_serve_probe(&env.dir.join("probe"), &items, PROBE_ROUNDS)?;
    let rtt_us = match env.sock() {
        Some(sock) => ladder::rtt_probe(sock, RTT_SAMPLES)?,
        None => probe.rtt_us.clone(),
    };

    let recorded: Vec<Vec<spans::Span>> = outs.iter().map(|o| o.spans.clone()).collect();
    let reduced = spans::reduce(&recorded);
    let spans_file =
        args.work_dir
            .join(format!("spans-{}-seed{}.tsv", args.kind.name(), args.seed));
    spans::write_spans(&spans_file, &recorded).map_err(|e| e.to_string())?;
    Ok(Layers {
        ladder,
        codec,
        probe,
        rtt_us,
        reduced,
        spans_file,
    })
}

/// Latency (ms) of every timed request.
fn latencies_ms(run: &Run) -> Vec<f64> {
    run.outs
        .iter()
        .flat_map(|o| o.latencies_ms.iter().copied())
        .collect()
}

fn end_to_end(run: &Run) -> BTreeMap<&'static str, f64> {
    let latencies = latencies_ms(run);
    let instrs: u64 = run.outs.iter().map(|o| o.instrs).sum();
    let (skipped, total) = run
        .outs
        .iter()
        .fold((0, 0), |(s, t), o| (s + o.reused.0, t + o.reused.1));
    let mut m = BTreeMap::new();
    m.insert("setup_s", median(&run.setup_s));
    m.insert("sim_mips", ratio(instrs as f64 / 1e6, run.wall_s));
    m.insert("request_ms_p50", percentile(&latencies, 50.0).value);
    m.insert("request_ms_p99", percentile(&latencies, 99.0).value);
    m.insert("requests_per_s", ratio(latencies.len() as f64, run.wall_s));
    m.insert("reused_pct", 100.0 * ratio(skipped as f64, total as f64));
    m.insert("paper_err_pct", run.paper_err_pct);
    m.insert("peak_rss_mb", peak_rss_mb());
    m
}

/// Where a per-layer figure came from, for the human-readable table.
fn per_layer(kind: Kind, run: &Run, layers: &Layers) -> BTreeMap<&'static str, (f64, String)> {
    let mut m = BTreeMap::new();
    let mut put = |name: &'static str, value: f64, source: &str| {
        m.insert(name, (value, source.to_string()));
    };
    let l = &layers.ladder;
    put("vm.fast_ns_per_instr", l.fast_ns, "ladder");
    put("vm.observe_ns_per_instr", l.observe_ns, "ladder");
    put("limits.ns_per_instr", l.limit_ns - l.observe_ns, "ladder");
    put(
        "collect.ns_per_instr",
        l.collect_ns - l.observe_ns,
        "ladder",
    );
    put("collect.traces_per_kinstr", l.traces_per_kinstr, "ladder");
    put("rtm.insert_ns_per_trace", l.insert_ns_per_trace, "ladder");
    put("engine.cold_ns_per_instr", l.engine_ns, "ladder");
    put("engine.warm_ns_per_instr", l.warm_ns, "ladder");
    put(
        "engine.ladder_gap_ns_per_instr",
        l.engine_ns - l.insert_ns,
        "ladder",
    );

    let rtm = bench::rtm_total(&run.outs);
    let kinstr = rtm.instrs as f64 / 1e3;
    put(
        "rtm.lookups_per_kinstr",
        ratio(rtm.lookups as f64, kinstr),
        "loop",
    );
    put(
        "rtm.hit_ratio",
        ratio(rtm.hits as f64, rtm.lookups as f64),
        "loop",
    );
    put(
        "rtm.value_rejects_per_lookup",
        ratio(rtm.value_rejects as f64, rtm.lookups as f64),
        "loop",
    );
    put(
        "rtm.useful_store_ratio",
        ratio(
            rtm.stores as f64,
            (rtm.stores + rtm.duplicate_stores) as f64,
        ),
        "loop",
    );
    put(
        "rtm.evictions_per_kinstr",
        ratio(rtm.evictions as f64, kinstr),
        "loop",
    );

    let r = &layers.reduced;
    let serving = kind != Kind::PaperRepro;
    let (import, export) = if serving {
        (median(r.us("engine.import")), median(r.us("engine.export")))
    } else {
        (l.import_us, l.export_us)
    };
    let engine_src = if serving { "loop" } else { "ladder" };
    put("engine.import_us", import, engine_src);
    put("engine.export_us", export, engine_src);

    let c = &layers.codec;
    put("persist.encode_mb_s", c.encode_mb_s, "codec");
    put("persist.decode_mb_s", c.decode_mb_s, "codec");
    put(
        "persist.merge_us_per_ktrace",
        c.merge_us_per_ktrace,
        "codec",
    );

    let p = &layers.probe;
    // A span percentile from the loop when the workload makes the call
    // itself, else from the probe.
    let pick = |in_loop: bool, name: &str, probe: &[f64], q: f64| -> (f64, &'static str) {
        if in_loop {
            (percentile(r.us(name), q).value, "loop")
        } else {
            (percentile(probe, q).value, "probe")
        }
    };
    // No workload spills; the probe does, on every traced run.
    let per_spill = |n: u64| ratio(n as f64, p.spills.spills as f64);
    put(
        "persist.spill_bytes_per_publish",
        per_spill(p.spills.bytes),
        "probe",
    );
    put("persist.delta_frac", per_spill(p.spills.deltas), "probe");
    put(
        "persist.compactions_per_kpublish",
        1e3 * per_spill(p.spills.compactions),
        "probe",
    );
    let cross_seed = kind == Kind::CrossSeed;
    let registry_calls = [
        (
            "registry.get_by_shape_us_p50",
            cross_seed,
            "registry.get_by_shape",
            &p.get_us,
            50.0,
        ),
        (
            "registry.get_by_shape_us_p99",
            cross_seed,
            "registry.get_by_shape",
            &p.get_us,
            99.0,
        ),
        (
            "registry.publish_us_p50",
            cross_seed,
            "registry.publish",
            &p.publish_us,
            50.0,
        ),
        (
            "registry.publish_us_p99",
            cross_seed,
            "registry.publish",
            &p.publish_us,
            99.0,
        ),
    ];
    for (metric, in_loop, span, probe, q) in registry_calls {
        let (value, src) = pick(in_loop, span, probe, q);
        put(metric, value, src);
    }
    put(
        "registry.spill_us_p50",
        percentile(&p.spill_us, 50.0).value,
        "probe",
    );
    put(
        "registry.spill_us_p99",
        percentile(&p.spill_us, 99.0).value,
        "probe",
    );

    // Registry counters as the registry itself counts them: over the
    // run on the serving workloads, over the probe on paper-repro.
    // The registry counts over the whole loop, warm-up included, so
    // the base is every request attempted.
    let requests: u64 = run.outs.iter().map(|o| o.attempted).sum();
    let (counted, fetches, src) = match run.registry_stats {
        Some(delta) => (delta, requests as f64, "loop"),
        None => (p.registry, p.fetches as f64, "probe"),
    };
    put(
        "registry.fetches_per_request",
        ratio((counted.hits + counted.misses) as f64, fetches),
        src,
    );
    put(
        "registry.image_hit_ratio",
        ratio(
            counted.image_hits as f64,
            (counted.image_hits + counted.image_builds) as f64,
        ),
        src,
    );
    put(
        "registry.shape_hit_ratio",
        ratio(counted.shape_hits as f64, fetches),
        src,
    );

    let fleet = kind == Kind::WarmFleet;
    let remote_calls = [
        (
            "remote.connect_us_p50",
            "remote.connect",
            &p.connect_us,
            50.0,
        ),
        ("remote.fetch_us_p50", "remote.fetch", &p.fetch_us, 50.0),
        ("remote.fetch_us_p99", "remote.fetch", &p.fetch_us, 99.0),
        (
            "remote.publish_us_p50",
            "remote.publish",
            &p.remote_publish_us,
            50.0,
        ),
        (
            "remote.publish_us_p99",
            "remote.publish",
            &p.remote_publish_us,
            99.0,
        ),
    ];
    for (metric, span, probe, q) in remote_calls {
        let (value, src) = pick(fleet, span, probe, q);
        put(metric, value, src);
    }
    put(
        "remote.rtt_us_p50",
        median(&layers.rtt_us),
        if fleet { "daemon" } else { "probe" },
    );
    put("remote.fetch_kb", median(&p.fetch_kb), "probe");

    put(
        "trace.overhead_pct",
        bench::tracing_overhead_pct(&run.outs),
        "loop",
    );
    put(
        "trace.unexplained_pct",
        100.0 * r.unexplained_share(),
        "loop",
    );
    m
}

fn print_end_to_end(run: &Run, metrics: &BTreeMap<&'static str, f64>) {
    let latencies = latencies_ms(run);
    println!("end-to-end:");
    for (name, unit) in report::END_TO_END {
        let note = match *name {
            "setup_s" => {
                let lo = run.setup_s.iter().copied().fold(f64::MAX, f64::min);
                let hi = run.setup_s.iter().copied().fold(0.0, f64::max);
                format!(
                    "median of {} set-ups before and after the timed phase, {:.1}-{:.1} ms",
                    run.setup_s.len(),
                    lo * 1e3,
                    hi * 1e3
                )
            }
            "sim_mips" | "requests_per_s" => {
                format!("over the whole timed phase, {:.3} s", run.wall_s)
            }
            "request_ms_p50" | "request_ms_p99" => {
                let q = if name.ends_with("p50") { 50.0 } else { 99.0 };
                let p = percentile(&latencies, q);
                let warn = if p.beyond < 10 {
                    ", under 10 samples beyond"
                } else {
                    ""
                };
                format!("n={} timed requests, {} beyond{warn}", p.n, p.beyond)
            }
            _ => String::new(),
        };
        println!("  {name:<32} {:>14.4} {unit:<6} {note}", metrics[name]);
    }
}

fn print_layers(metrics: &BTreeMap<&'static str, (f64, String)>, layers: &Layers) {
    println!("per-layer (source: loop = the workload's own calls, ladder/codec/probe = timed");
    println!("           separately on the workload's programs and snapshots):");
    for (name, unit) in report::PER_LAYER {
        let (value, source) = &metrics[name];
        println!("  {name:<32} {value:>14.4} {unit:<6} {source}");
    }
    let r = &layers.reduced;
    println!("self time per span over {} traced requests:", r.requests);
    for (name, ns) in &r.self_ns {
        println!(
            "  {name:<24} {:>10.3} ms  {:>5.1}%  n={}",
            *ns as f64 / 1e6,
            100.0 * ratio(*ns as f64, r.request_ns as f64),
            r.us(name).len()
        );
    }
    println!(
        "conservation: children explain {:.3}% of request time; {:.3}% unexplained \
         (tolerance {:.1}%): {}",
        100.0 * (1.0 - r.unexplained_share()),
        100.0 * r.unexplained_share(),
        100.0 * spans::CONSERVATION_TOLERANCE,
        if r.conserved() { "pass" } else { "FAIL" }
    );
    if r.unbalanced_requests > 0 {
        println!(
            "finding: {} of {} traced requests have a remainder above {:.1}% that no \
             child span explains",
            r.unbalanced_requests,
            r.requests,
            100.0 * spans::CONSERVATION_TOLERANCE
        );
    }
    let l = &layers.ladder;
    println!(
        "ladder (ns/instr, cumulative): fast {:.2} | observe {:.2} | +collect {:.2} | \
         +insert {:.2} | engine {:.2} (gap {:.2}) | limits {:.2} | warm {:.2}",
        l.fast_ns,
        l.observe_ns,
        l.collect_ns,
        l.insert_ns,
        l.engine_ns,
        l.engine_ns - l.insert_ns,
        l.limit_ns,
        l.warm_ns
    );
    println!("spans written to {}", layers.spans_file.display());
}

/// Set the workload up [`SETUP_REPS`] times or more, for
/// [`SETUP_MIN_S`] or more, adding each set-up's time to `times`;
/// returns the last set-up.
fn repeat_setup(args: &Args, times: &mut Vec<f64>) -> Result<Env, String> {
    let began = Instant::now();
    let first = times.len();
    let mut env: Option<Env> = None;
    while times.len() - first < SETUP_REPS || began.elapsed().as_secs_f64() < SETUP_MIN_S {
        if let Some(previous) = env.take() {
            previous.teardown()?;
        }
        let dir = args
            .work_dir
            .join(format!("{}-{}", args.kind.name(), times.len() % 2));
        let start = Instant::now();
        env = Some(Env::setup(args.kind, args.seed, &dir)?);
        times.push(start.elapsed().as_secs_f64());
    }
    env.ok_or_else(|| "no set-up".to_string())
}

fn run_main(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    let mut setup_s = Vec::new();
    let env = repeat_setup(args, &mut setup_s)?;
    let run = execute(args, &env);
    let torn_down = env.teardown();
    let mut run = run?;
    torn_down?;
    repeat_setup(args, &mut setup_s)?.teardown()?;
    run.setup_s = setup_s;

    let attempted: u64 = run.outs.iter().map(|o| o.attempted).sum();
    let failures: Vec<&String> = run.outs.iter().flat_map(|o| &o.failures).collect();
    println!(
        "workload {}  seed {}  clients {}  timed {:.3} s  trace {}",
        args.kind.name(),
        args.seed,
        args.clients,
        run.wall_s,
        if args.trace { "on" } else { "off" }
    );
    for why in failures.iter().take(10) {
        println!("FAILED {why}");
    }
    let e2e = end_to_end(&run);
    print_end_to_end(&run, &e2e);
    println!(
        "  failed_frac {} ({} failed of {attempted} attempted)",
        ratio(failures.len() as f64, attempted as f64),
        failures.len()
    );
    let mut correct = failures.is_empty();
    let line = match &run.layers {
        None => report::result_line(
            correct,
            attempted,
            failures.len() as u64,
            report::END_TO_END,
            &e2e,
        )?,
        Some(layers) => {
            let metrics = per_layer(args.kind, &run, layers);
            print_layers(&metrics, layers);
            correct &= layers.reduced.conserved();
            let values = metrics.iter().map(|(k, (v, _))| (*k, *v)).collect();
            report::result_line(
                correct,
                attempted,
                failures.len() as u64,
                report::PER_LAYER,
                &values,
            )?
        }
    };
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
