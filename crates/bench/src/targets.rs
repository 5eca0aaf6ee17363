//! The target table behind `reproduce`.
//!
//! Every target is one row of [`TARGETS`]: its name, what it
//! reproduces, what its `--check` gate catches (gated targets only), and
//! the function that runs it and returns its tables. The binary's help
//! text, target-name resolution and the target tables of `README.md`
//! and the crate docs all come from this one list, and a test pins the
//! docs to it. Adding a target means adding one row.

use std::cell::OnceCell;

use crate::harness::{run_engine_grid, run_limit_studies, BenchResult, HarnessConfig};
use crate::{crossseed, daemon, decant, figures, fleet, policy, serveperf, throughput, warmstart};
use tlr_core::{Heuristic, RtmConfig};
use tlr_stats::Table;

/// One table a target emits.
pub struct Emitted {
    /// CSV file stem and `--json` key.
    pub name: &'static str,
    /// Printed title.
    pub title: &'static str,
    /// The table itself.
    pub table: Table,
}

/// What running one target produced.
#[derive(Default)]
pub struct Output {
    /// Tables, in print order.
    pub tables: Vec<Emitted>,
    /// ASCII bar charts, printed with `--charts`.
    pub charts: Vec<String>,
    /// The regression gate's verdict; `None` for ungated targets.
    pub verdict: Option<Result<(), String>>,
}

impl Output {
    fn table(mut self, name: &'static str, title: &'static str, table: Table) -> Self {
        self.tables.push(Emitted { name, title, table });
        self
    }

    fn chart(mut self, chart: String) -> Self {
        self.charts.push(chart);
        self
    }

    fn gated(mut self, verdict: Result<(), String>) -> Self {
        self.verdict = Some(verdict);
        self
    }
}

/// What the targets of one invocation share: the harness configuration
/// and the limit studies, which Figures 3–8, §4.5 and the slot ablation
/// all read and which run once, on first use.
pub struct Context {
    /// Budget, seed, window and threads.
    pub cfg: HarnessConfig,
    limits: OnceCell<Vec<BenchResult>>,
}

impl Context {
    /// A context whose limit studies have not run yet.
    pub fn new(cfg: HarnessConfig) -> Self {
        Self {
            cfg,
            limits: OnceCell::new(),
        }
    }

    fn limits(&self) -> &[BenchResult] {
        self.limits.get_or_init(|| run_limit_studies(&self.cfg))
    }
}

/// One `reproduce` target.
pub struct Target {
    /// Command-line name.
    pub name: &'static str,
    /// What it reproduces, as the docs' target tables state it.
    pub reproduces: &'static str,
    /// For gated targets, what makes `--check` fail.
    pub gate: Option<&'static str>,
    /// Runs the target.
    pub run: fn(&Context) -> Output,
}

/// Every target, in run order.
pub const TARGETS: &[Target] = &[
    Target {
        name: "fig3",
        reproduces: "Figure 3 — instruction-level reusability",
        gate: None,
        run: |cx| {
            let r = cx.limits();
            Output::default()
                .table(
                    "fig3",
                    "Figure 3: instruction-level reusability (perfect engine, % of dynamic instructions)",
                    figures::fig3(r),
                )
                .chart(figures::chart("reusability %", r, |r| r.limit.reusability_pct))
        },
    },
    Target {
        name: "fig4",
        reproduces: "Figure 4 — ILR speed-up, infinite window (a: per-benchmark @1 cycle, b: latency sweep)",
        gate: None,
        run: |cx| {
            let r = cx.limits();
            Output::default()
                .table(
                    "fig4a",
                    "Figure 4a: ILR speed-up, infinite window, 1-cycle reuse latency",
                    figures::fig4a(r),
                )
                .table(
                    "fig4b",
                    "Figure 4b: ILR speed-up vs reuse latency (infinite window, averages)",
                    figures::fig4b(r),
                )
        },
    },
    Target {
        name: "fig5",
        reproduces: "Figure 5 — ILR speed-up, 256-entry window",
        gate: None,
        run: |cx| {
            let r = cx.limits();
            Output::default()
                .table(
                    "fig5a",
                    "Figure 5a: ILR speed-up, 256-entry window, 1-cycle reuse latency",
                    figures::fig5a(r),
                )
                .table(
                    "fig5b",
                    "Figure 5b: ILR speed-up vs reuse latency (256-entry window, averages)",
                    figures::fig5b(r),
                )
        },
    },
    Target {
        name: "fig6",
        reproduces: "Figure 6 — TLR speed-up @1 cycle (a: infinite, b: 256-entry)",
        gate: None,
        run: |cx| {
            let r = cx.limits();
            Output::default()
                .table(
                    "fig6a",
                    "Figure 6a: TLR speed-up, infinite window, 1-cycle reuse latency",
                    figures::fig6a(r),
                )
                .table(
                    "fig6b",
                    "Figure 6b: TLR speed-up, 256-entry window, 1-cycle reuse latency",
                    figures::fig6b(r),
                )
                .chart(figures::chart("TLR speed-up (W=256)", r, |r| {
                    r.limit.tlr_speedup_win(1)
                }))
        },
    },
    Target {
        name: "fig7",
        reproduces: "Figure 7 — average trace size",
        gate: None,
        run: |cx| {
            Output::default().table(
                "fig7",
                "Figure 7: average trace size (maximal reusable traces)",
                figures::fig7(cx.limits()),
            )
        },
    },
    Target {
        name: "fig8",
        reproduces: "Figure 8 — TLR latency sensitivity (a: constant 1–4, b: ∝ I/O, K sweep)",
        gate: None,
        run: |cx| {
            let r = cx.limits();
            Output::default()
                .table(
                    "fig8a",
                    "Figure 8a: TLR speed-up vs constant reuse latency (W=256, averages)",
                    figures::fig8a(r),
                )
                .table(
                    "fig8b",
                    "Figure 8b: TLR speed-up vs proportional latency K x (inputs+outputs) (W=256)",
                    figures::fig8b(r),
                )
        },
    },
    Target {
        name: "io",
        reproduces: "§4.5 text — per-trace I/O counts and bandwidth per reused instruction",
        gate: None,
        run: |cx| {
            Output::default().table(
                "io",
                "Section 4.5: per-trace I/O and bandwidth per reused instruction",
                figures::io_table(cx.limits()),
            )
        },
    },
    Target {
        name: "fig9",
        reproduces: "Figure 9 — finite RTM × collection heuristic (% reused, trace size)",
        gate: None,
        run: |cx| {
            let rtms = RtmConfig::PAPER_SWEEP;
            let heuristics = Heuristic::paper_sweep();
            let cells = run_engine_grid(&cx.cfg, &rtms, &heuristics);
            Output::default()
                .table(
                    "fig9a",
                    "Figure 9a: % of dynamic instructions reused (finite RTM, average of 14 benchmarks)",
                    figures::fig9a(&cells, &rtms, &heuristics),
                )
                .table(
                    "fig9b",
                    "Figure 9b: average reused-trace size (finite RTM, average of 14 benchmarks)",
                    figures::fig9b(&cells, &rtms, &heuristics),
                )
        },
    },
    Target {
        name: "ablation",
        reproduces: "ours — window slots per reused trace (0 vs 1)",
        gate: None,
        run: |cx| {
            Output::default().table(
                "ablation_slots",
                "Ablation: window slots per reused trace (TLR, W=256, 1-cycle latency)",
                figures::ablation_slots(cx.limits()),
            )
        },
    },
    Target {
        name: "pipeline",
        reproduces: "§3 model — pipeline ablation: fetch-skip and window-bypass decomposition",
        gate: None,
        run: |cx| {
            Output::default().table(
                "pipeline_ablation",
                "Pipeline ablation (Section 3 model): fetch-skip and window-bypass decomposition",
                figures::pipeline_ablation(&cx.cfg),
            )
        },
    },
    Target {
        name: "validbit",
        reproduces: "§3.3 — reuse test: value comparison vs valid bit + invalidation",
        gate: None,
        run: |cx| {
            Output::default().table(
                "validbit",
                "Reuse-test comparison (Section 3.3): value comparison vs valid bit + invalidation",
                figures::validbit_table(&cx.cfg),
            )
        },
    },
    Target {
        name: "schemes",
        reproduces: "§2 — instruction-reuse schemes (Sodani & Sohi): Sv values vs Sn names",
        gate: None,
        run: |cx| {
            Output::default().table(
                "schemes",
                "Instruction-reuse schemes (Section 2, Sodani & Sohi): Sv values vs Sn names",
                figures::schemes_table(&cx.cfg),
            )
        },
    },
    Target {
        name: "warmstart",
        reproduces: "ours — cold vs RTM-snapshot-seeded engine",
        gate: Some("a warm start reuses less than its cold run, or a snapshot is empty"),
        run: |cx| {
            let cells =
                warmstart::run_warm_start(&cx.cfg, RtmConfig::RTM_4K, Heuristic::FixedExp(4));
            Output::default()
                .table(
                    "warmstart",
                    "Warm start (ours): cold vs RTM-snapshot-seeded engine, % of instructions reused",
                    warmstart::warm_start_table(&cells),
                )
                .gated(warmstart::check_warm_start(&cells))
        },
    },
    Target {
        name: "fleet",
        reproduces: "ours — solo-warm vs merged-warm reuse (snapshot pooling for a serving fleet)",
        gate: Some(
            "merged-warm reuse falls below the weaker solo warm start on a workload or below \
             the better solo on the suite mean, or a merge reports conflicts",
        ),
        run: |cx| {
            let cells = fleet::run_fleet(&cx.cfg, RtmConfig::RTM_32K);
            Output::default()
                .table(
                    "fleet",
                    "Fleet pooling (ours): solo-warm vs merged-warm engine, in-process batched, % of instructions reused",
                    fleet::fleet_table(&cells),
                )
                .gated(fleet::check_fleet(&cells))
        },
    },
    Target {
        name: "policy",
        reproduces: "ours — RTM replacement-policy sweep (LRU vs LFU vs cost/benefit, cold and merged-warm)",
        gate: Some("a configuration leaves plain execution's state, or a policy merge is empty"),
        run: |cx| {
            let cells = policy::run_policy_sweep(&cx.cfg, RtmConfig::RTM_32K);
            Output::default()
                .table(
                    "policy",
                    "Replacement-policy sweep (ours): LRU vs LFU vs cost/benefit, cold and merged-warm at RTM 32K",
                    policy::policy_table(&cells),
                )
                .gated(policy::check_policy(&cells))
        },
    },
    Target {
        name: "daemon",
        reproduces: "ours — N concurrent clients warm-starting from one `tlrd` daemon vs the in-process registry path",
        gate: Some(
            "a client's state digest differs from the in-process registry path's, a client \
             starts cold, fewer than two clients overlap, or the daemon's counters miss \
             client activity",
        ),
        run: |cx| {
            // Real client processes when the tlrsim binary sits next to
            // this one (a normal cargo build); in-thread clients otherwise.
            let tlrsim = daemon::sibling_tlrsim();
            if tlrsim.is_none() {
                eprintln!(
                    "[daemon: no tlrsim binary found next to reproduce; using in-thread clients]"
                );
            }
            let outcome =
                daemon::run_daemon_bench(&cx.cfg, RtmConfig::RTM_32K, tlrsim.as_deref());
            Output::default()
                .table(
                    "daemon",
                    "Daemon serving (ours): concurrent clients warm-started from one tlrd vs the in-process registry path",
                    daemon::daemon_table(&outcome),
                )
                .gated(daemon::check_daemon(&outcome))
        },
    },
    Target {
        name: "decant",
        reproduces: "ours — reuse attribution by opcode class and loop structure (`tlr-decant` over the decision tap)",
        gate: Some(
            "an attribution does not sum exactly to its decision log's totals, a log is empty \
             or truncated, or a cold run leaves skips unattributed",
        ),
        run: |cx| {
            let cells = decant::run_decant(&cx.cfg, RtmConfig::RTM_32K);
            Output::default()
                .table(
                    "decant",
                    "Reuse attribution (ours): per-workload decant of the decision tap by class and loop structure",
                    decant::decant_table(&cells),
                )
                .table(
                    "decant_classes",
                    "Reuse attribution (ours): per-opcode-class split, suite aggregate per policy",
                    decant::decant_class_table(&cells),
                )
                .table(
                    "decant_loops",
                    "Reuse attribution (ours): per-loop-structure split, suite aggregate per policy",
                    decant::decant_loop_table(&cells),
                )
                .gated(decant::check_decant(&cells))
        },
    },
    Target {
        name: "throughput",
        reproduces: "ours — simulator MIPS: observing interpreter vs predecoded fast path, the collecting and serving-only engine against plain execution",
        gate: Some(
            "an interpreter or engine leaves plain execution's state, count or halt, or a \
             suite-mean floor fails: predecoded ≥ 2× observing, serving ≥ collecting, \
             collecting ≥ `COLLECTING_FLOOR` of predecoded",
        ),
        run: |cx| {
            let cells = throughput::run_throughput(&cx.cfg, RtmConfig::RTM_4K);
            Output::default()
                .table(
                    "throughput",
                    "Simulator throughput (ours): observing interpreter vs predecoded fast path, collecting and serving-only engine (MIPS)",
                    throughput::throughput_table(&cells),
                )
                .gated(throughput::check_throughput(&cells))
        },
    },
    Target {
        name: "serveperf",
        reproduces: "ours — zero-copy `Get` latency (cached image vs re-serialization), delta-spill write amplification, base ⊕ delta split-load equality",
        gate: Some(
            "cached-image fetches miss `CACHED_SPEEDUP_FLOOR`, delta spills write no less than \
             full rewrites, or a base + delta load disagrees with the full load",
        ),
        run: |cx| {
            let outcome = serveperf::run_serveperf(&cx.cfg, RtmConfig::RTM_32K);
            Output::default()
                .table(
                    "serveperf_latency",
                    "Serving path (ours): daemon Get latency, per-request re-serialization vs cached image",
                    serveperf::serveperf_latency_table(&outcome.cells),
                )
                .table(
                    "serveperf_writes",
                    "Serving path (ours): publish-back write amplification, full rewrite vs delta spill",
                    serveperf::serveperf_write_table(&outcome.cells),
                )
                .table(
                    "serveperf_equality",
                    "Serving path (ours): base + delta split-load vs full-snapshot load, per policy",
                    serveperf::serveperf_equality_table(&outcome.equality),
                )
                .gated(serveperf::check_serveperf(&outcome))
        },
    },
    Target {
        name: "crossseed",
        reproduces: "ours — cross-seed warm start: same code under different data seeds shares reuse state by shape fingerprint",
        gate: Some(
            "a run leaves plain execution's state, the shape fingerprint is lost, cross-warm \
             reuse falls more than `CROSS_TOLERANCE_PCT` points below cold on a workload, or \
             cross-warm does not beat cold on the suite mean",
        ),
        run: |cx| {
            let cells =
                crossseed::run_crossseed(&cx.cfg, RtmConfig::RTM_4K, Heuristic::FixedExp(4));
            Output::default()
                .table(
                    "crossseed",
                    "Cross-seed warm start (ours): cold vs solo-warm vs shape-resolved cross-warm, % of instructions reused",
                    crossseed::crossseed_table(&cells),
                )
                .gated(crossseed::check_crossseed(&cells))
        },
    },
];

/// The targets `names` select, once each and in table order: every
/// target when `names` is empty or holds `all`. An unknown name is an
/// error naming it and listing the valid ones.
pub fn resolve(names: &[String]) -> Result<Vec<&'static Target>, String> {
    for name in names {
        if name != "all" && !TARGETS.iter().any(|t| t.name == name) {
            let valid: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
            return Err(format!(
                "unknown target '{name}' (valid: {} all)",
                valid.join(" ")
            ));
        }
    }
    let all = names.is_empty() || names.iter().any(|n| n == "all");
    Ok(TARGETS
        .iter()
        .filter(|t| all || names.iter().any(|n| n == t.name))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(targets: &[&Target]) -> Vec<&'static str> {
        targets.iter().map(|t| t.name).collect()
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// A target's row in the docs' target tables.
    fn doc_row(t: &Target) -> String {
        let gate = t.gate.unwrap_or("—");
        format!("| `reproduce {}` | {} | {gate} |", t.name, t.reproduces)
    }

    #[test]
    fn resolve_selects_known_targets_once_in_table_order() {
        let every: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
        assert_eq!(names(&resolve(&[]).unwrap()), every);
        assert_eq!(names(&resolve(&args(&["fleet", "all"])).unwrap()), every);
        assert_eq!(
            names(&resolve(&args(&["policy", "fleet", "policy"])).unwrap()),
            ["fleet", "policy"]
        );
        for bad in [&["fleeet"][..], &["fleet", "fleeet"], &["all", "fleeet"]] {
            let Err(err) = resolve(&args(bad)) else {
                panic!("{bad:?} resolved");
            };
            assert!(err.contains("'fleeet'"), "{err}");
            assert!(err.contains("crossseed") && err.contains("all"), "{err}");
        }
    }

    #[test]
    fn target_names_are_unique() {
        for (i, t) in TARGETS.iter().enumerate() {
            assert!(t.name != "all", "'all' is reserved");
            assert!(
                TARGETS[..i].iter().all(|u| u.name != t.name),
                "{} listed twice",
                t.name
            );
        }
    }

    #[test]
    fn docs_list_every_target() {
        // README.md and the crate docs carry the target table verbatim:
        // every row present, and no row for a target that is gone.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        for (path, prefix) in [("../../README.md", ""), ("src/lib.rs", "//! ")] {
            let path = root.join(path);
            let doc = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            let rows: Vec<String> = TARGETS
                .iter()
                .map(|t| format!("{prefix}{}", doc_row(t)))
                .collect();
            for row in &rows {
                assert!(
                    doc.lines().any(|l| l == row),
                    "{} lacks the target row\n{row}",
                    path.display()
                );
            }
            let stale = format!("{prefix}| `reproduce ");
            for line in doc.lines().filter(|l| l.starts_with(&stale)) {
                assert!(
                    rows.iter().any(|r| r == line),
                    "{} has a row for no target\n{line}",
                    path.display()
                );
            }
        }
    }
}
