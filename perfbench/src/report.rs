//! Metric names, units and the result line.
//!
//! `BENCHMARK.json` lists the same names; `test_benchmark.py` keeps
//! the two in step. The result line is emitted only through
//! [`result_line`], which refuses a metric set that differs from the
//! list it is meant to print.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_mips", "MIPS"),
    ("request_ms_p50", "ms"),
    ("request_ms_p99", "ms"),
    ("requests_per_s", "1/s"),
    ("reused_pct", "%"),
    ("paper_err_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vm.fast_ns_per_instr", "ns"),
    ("vm.observe_ns_per_instr", "ns"),
    ("limits.ns_per_instr", "ns"),
    ("collect.ns_per_instr", "ns"),
    ("collect.traces_per_kinstr", "count"),
    ("rtm.insert_ns_per_trace", "ns"),
    ("rtm.lookups_per_kinstr", "count"),
    ("rtm.hit_ratio", "ratio"),
    ("rtm.value_rejects_per_lookup", "ratio"),
    ("rtm.useful_store_ratio", "ratio"),
    ("rtm.evictions_per_kinstr", "count"),
    ("engine.cold_ns_per_instr", "ns"),
    ("engine.warm_ns_per_instr", "ns"),
    ("engine.ladder_gap_ns_per_instr", "ns"),
    ("engine.import_us", "us"),
    ("engine.export_us", "us"),
    ("persist.encode_mb_s", "MB/s"),
    ("persist.decode_mb_s", "MB/s"),
    ("persist.merge_us_per_ktrace", "us"),
    ("persist.spill_bytes_per_publish", "B"),
    ("persist.delta_frac", "ratio"),
    ("persist.compactions_per_kpublish", "count"),
    ("registry.get_by_shape_us_p50", "us"),
    ("registry.get_by_shape_us_p99", "us"),
    ("registry.publish_us_p50", "us"),
    ("registry.publish_us_p99", "us"),
    ("registry.spill_us_p50", "us"),
    ("registry.spill_us_p99", "us"),
    ("registry.fetches_per_request", "count"),
    ("registry.image_hit_ratio", "ratio"),
    ("registry.shape_hit_ratio", "ratio"),
    ("remote.connect_us_p50", "us"),
    ("remote.fetch_us_p50", "us"),
    ("remote.fetch_us_p99", "us"),
    ("remote.publish_us_p50", "us"),
    ("remote.publish_us_p99", "us"),
    ("remote.rtt_us_p50", "us"),
    ("remote.fetch_kb", "KB"),
    ("trace.overhead_pct", "%"),
    ("trace.unexplained_pct", "%"),
];

/// A metric value as JSON: finite numbers with all their digits.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line. `metrics` must hold exactly the names of `listed`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    listed: &[(&str, &str)],
    metrics: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut missing: Vec<&str> = listed
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !metrics.contains_key(n))
        .collect();
    missing.extend(
        metrics
            .keys()
            .filter(|k| !listed.iter().any(|(n, _)| n == *k)),
    );
    if !missing.is_empty() {
        return Err(format!("metric set differs from the list at {missing:?}"));
    }
    let body: Vec<String> = listed
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(metrics[name])
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn result_line_refuses_a_partial_metric_set() {
        let mut metrics = BTreeMap::new();
        metrics.insert("setup_s", 1.5);
        assert!(result_line(true, 1, 0, END_TO_END, &metrics).is_err());
        for (name, _) in END_TO_END {
            metrics.insert(name, 2.0);
        }
        let line = result_line(true, 3, 0, END_TO_END, &metrics).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 2, \"unit\": \"s\"}"));
        metrics.insert("extra", 1.0);
        assert!(result_line(true, 1, 0, END_TO_END, &metrics).is_err());
    }
}
