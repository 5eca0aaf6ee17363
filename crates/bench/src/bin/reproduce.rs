//! `reproduce` — regenerate every table and figure of the paper.
//!
//! ```text
//! reproduce [OPTIONS] [TARGETS...]
//! ```
//!
//! The targets, and which of them `--check` gates, are the rows of
//! [`tlr_bench::TARGETS`]; `reproduce --help` lists them and the
//! options.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tlr_bench::{Context, Emitted, HarnessConfig, Target, TARGETS};
use tlr_persist::json::{self, Json};

struct Options {
    cfg: HarnessConfig,
    targets: Vec<&'static Target>,
    out_dir: PathBuf,
    json_out: Option<PathBuf>,
    charts: bool,
    check: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut cfg = HarnessConfig::default();
    let mut names = Vec::new();
    let mut out_dir = PathBuf::from("results");
    let mut json_out = None;
    let mut charts = false;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--budget" => cfg.budget = value("--budget")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => cfg.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--window" => cfg.window = value("--window")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => cfg.threads = value("--threads")?.parse().map_err(|e| format!("{e}"))?,
            "--out" => out_dir = PathBuf::from(value("--out")?),
            "--json" => json_out = Some(PathBuf::from(value("--json")?)),
            "--charts" => charts = true,
            "--check" => check = true,
            "--help" | "-h" => {
                println!("{}", help());
                std::process::exit(0);
            }
            t if !t.starts_with('-') => names.push(t.to_string()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Options {
        cfg,
        targets: tlr_bench::resolve(&names)?,
        out_dir,
        json_out,
        charts,
        check,
    })
}

fn help() -> String {
    let names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
    let gated: Vec<&str> = TARGETS
        .iter()
        .filter(|t| t.gate.is_some())
        .map(|t| t.name)
        .collect();
    format!(
        "reproduce [OPTIONS] [TARGETS...]\n\n\
         TARGETS: {} all   (default: all)\n\n\
         OPTIONS:\n  \
         --budget N    dynamic instructions per benchmark   (default 400000)\n  \
         --seed N      workload seed                        (default 20260611)\n  \
         --window N    finite window size                   (default 256)\n  \
         --threads N   worker threads                       (default: all cores)\n  \
         --out DIR     write CSVs here                      (default results/)\n  \
         --json OUT    also write every produced table to OUT as one\n                \
         machine-readable JSON document (config + targets)\n  \
         --charts      also print ASCII bar charts\n  \
         --check       exit nonzero on a regression ({})",
        names.join(" "),
        gated.join(", ")
    )
}

/// JSON schema tag of the `--json` results document.
const RESULTS_FORMAT: &str = "tlr-bench-v1";

/// The machine-readable results document: run configuration plus every
/// produced table's title, headers and rows, keyed by table name.
fn results_json(cfg: &HarnessConfig, tables: &[Emitted]) -> Json {
    let strings =
        |cells: &[String]| Json::Arr(cells.iter().map(|c| Json::Str(c.clone())).collect());
    let mut targets = BTreeMap::new();
    for Emitted { name, title, table } in tables {
        let mut obj = BTreeMap::new();
        obj.insert("title".into(), Json::Str(title.to_string()));
        obj.insert("headers".into(), strings(table.headers()));
        obj.insert(
            "rows".into(),
            Json::Arr(table.rows().iter().map(|row| strings(row)).collect()),
        );
        targets.insert(name.to_string(), Json::Obj(obj));
    }
    let mut config = BTreeMap::new();
    config.insert("budget".into(), Json::Num(cfg.budget));
    config.insert("seed".into(), Json::Num(cfg.seed));
    config.insert("window".into(), Json::Num(cfg.window as u64));
    let mut doc = BTreeMap::new();
    doc.insert("format".into(), Json::Str(RESULTS_FORMAT.into()));
    doc.insert("config".into(), Json::Obj(config));
    doc.insert("targets".into(), Json::Obj(targets));
    Json::Obj(doc)
}

/// Print one table and write it to `out_dir` as CSV.
fn emit(out_dir: &Path, emitted: &Emitted) {
    println!("== {} ==", emitted.title);
    println!("{}", emitted.table.to_text());
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("warning: cannot create {}: {e}", out_dir.display());
        return;
    }
    let path = out_dir.join(format!("{}.csv", emitted.name));
    if let Err(e) = std::fs::write(&path, emitted.table.to_csv()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn main() {
    let opts = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", help());
        std::process::exit(2);
    });
    println!(
        "trace-level reuse reproduction | budget {} instrs/benchmark, seed {}, window {}",
        tlr_util::group_digits(opts.cfg.budget),
        opts.cfg.seed,
        opts.cfg.window
    );
    println!();

    let context = Context::new(opts.cfg.clone());
    let mut tables = Vec::new();
    for target in &opts.targets {
        let start = Instant::now();
        let output = (target.run)(&context);
        eprintln!("[{}: {:?}]", target.name, start.elapsed());
        for emitted in output.tables {
            emit(&opts.out_dir, &emitted);
            tables.push(emitted);
        }
        if opts.charts {
            for chart in &output.charts {
                println!("{chart}");
            }
        }
        if opts.check && target.gate.is_some() {
            let verdict = output.verdict.expect("a gated target returns its verdict");
            if let Err(msg) = verdict {
                eprintln!("error: {} regression: {msg}", target.name);
                std::process::exit(1);
            }
            println!("{} check: ok", target.name);
        }
    }

    if let Some(path) = &opts.json_out {
        let text = json::to_string_pretty(&results_json(&opts.cfg, &tables));
        match std::fs::write(path, text) {
            Ok(()) => println!(
                "wrote {} target table(s) to {}",
                tables.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
