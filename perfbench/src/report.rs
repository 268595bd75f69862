//! Metric tables and the one-line JSON result.
//!
//! The tables mirror `BENCHMARK.json`'s `end_to_end` and `per_layer`
//! lists (a test keeps them in step); a run prints every metric of the
//! table its `--trace` flag selects, or fails without a result.

use crate::stats::is_metric_name;
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ips", "img/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("served_share", "ratio"),
    ("energy_mj_per_img", "mJ"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.gemm_f32.us", "us"),
    ("tensor.gemm_f32.gflops", "GFLOP/s"),
    ("tensor.gemm_int8.us", "us"),
    ("tensor.gemm_int8.gflops", "GFLOP/s"),
    ("tensor.softmax.us", "us"),
    ("tensor.softmax_share", "ratio"),
    ("tensor.gelu.us", "us"),
    ("nn.layernorm.us", "us"),
    ("nn.linear.us", "us"),
    ("nn.linear_overhead.us", "us"),
    ("nn.attention.us", "us"),
    ("nn.mlp.us", "us"),
    ("vit.level0.ms_per_img", "ms"),
    ("vit.level1.ms_per_img", "ms"),
    ("vit.block_active.us", "us"),
    ("vit.block_skipped.us", "us"),
    ("vit.prepare_s", "s"),
    ("vit.unique_weight_mb", "MB"),
    ("core.f_low", "ratio"),
    ("core.wasted_share", "ratio"),
    ("core.self.us_per_batch", "us"),
    ("core.gate.us_per_img", "us"),
    ("serve.batch_size", "img"),
    ("serve.engine_p50_ms", "ms"),
    ("serve.submit.us", "us"),
    ("serve.gen_lateness_p99_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.timed_out", "count"),
    ("serve.degraded", "count"),
    ("serve.failed", "count"),
    ("serve.downshifts", "count"),
    ("sim.level0_mj", "mJ"),
    ("sim.level1_mj", "mJ"),
    ("sim.level0_ms", "ms"),
    ("sim.level1_ms", "ms"),
    ("sim.softmax_share", "ratio"),
    ("data.gen_ms_per_img", "ms"),
    ("host.ref_batch_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Serving metrics an offline workload does not exercise; it reports 0.
pub const SERVE_ONLY: &[&str] = &[
    "serve.batch_size",
    "serve.engine_p50_ms",
    "serve.submit.us",
    "serve.gen_lateness_p99_ms",
    "serve.shed",
    "serve.timed_out",
    "serve.degraded",
    "serve.failed",
    "serve.downshifts",
];

/// Outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (image classifications or requests).
    pub attempted: u64,
    /// Operations that failed a check or were not served.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line for `table`, or an error naming a metric that is
    /// missing or not a finite number.
    pub fn to_json(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            if !is_metric_name(name) {
                return Err(format!("{name} is not a valid metric name"));
            }
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_is_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_metric_name(name), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for name in SERVE_ONLY {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        assert!(r.to_json(&[("setup_s", "s")]).is_err());
        r.set("setup_s", 0.8127);
        assert_eq!(
            r.to_json(&[("setup_s", "s")]).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        r.set("setup_s", f64::NAN);
        assert!(r.to_json(&[("setup_s", "s")]).is_err());
    }
}
