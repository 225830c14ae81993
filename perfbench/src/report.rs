//! Metric declarations and the printed report.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; the
//! smoke test checks that the two agree.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), emitted by every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("first_answer_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// A per-layer metric (traced runs) and the workloads that exercise it.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub workloads: &'static [&'static str],
}

const ALL: &[&str] = &["explore", "serve", "join-append"];
const FILES: &[&str] = &["explore", "join-append"];
const SERVE: &[&str] = &["serve"];

const fn m(
    name: &'static str,
    unit: &'static str,
    workloads: &'static [&'static str],
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        workloads,
    }
}

/// Per-layer metrics. Times ending in `_ms` without another qualifier are
/// mean self time per query; `1/query` counts are means per query.
pub const PER_LAYER: [LayerMetric; 31] = [
    m("rawcsv.tokenize1_ms", "ms", FILES),
    m("rawcsv.phase1_mb_s", "MB/s", FILES),
    m("rawcsv.scan_mb_s", "MB/s", FILES),
    m("rawcsv.file_passes", "1/query", FILES),
    m("rawcsv.values_parsed", "1/query", FILES),
    m("rawcsv.file_trips", "1/query", FILES),
    m("core.cold_pipeline_ms", "ms", FILES),
    m("core.load_ms", "ms", FILES),
    m("core.plan_cache_hit_ratio", "frac", ALL),
    m("core.mem_reserved_peak_mb", "MB", ALL),
    m("store.bytes_peak_mb", "MB", ALL),
    m("store.tuples_evicted", "1/query", &["explore"]),
    m("store.hit_ratio", "frac", ALL),
    m("exec.warm_kernel_ms", "ms", ALL),
    m("exec.group_merge_ms", "ms", SERVE),
    m("exec.join_build_ms", "ms", &["join-append"]),
    m("exec.join_probe_ms", "ms", &["join-append"]),
    m("exec.morsels", "1/query", ALL),
    m("exec.steal_ratio", "frac", ALL),
    m("sql.plan_ms", "ms", ALL),
    m("sql.parse_us", "us", ALL),
    m("server.overhead_ms", "ms", SERVE),
    m("server.query_p50_us", "us", SERVE),
    m("server.fetch_p50_us", "us", SERVE),
    m("server.queue_wait_p50_us", "us", SERVE),
    m("server.fetches_per_query", "1/query", SERVE),
    m("server.reactor_wakeups_per_request", "1/request", SERVE),
    m("server.busy_rejections", "count", SERVE),
    m("trace.overhead_frac", "frac", ALL),
    m("trace.load_share", "frac", ALL),
    m("baselines.awk_query_ms", "ms", ALL),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable detail for a metric (tail percentile, sample
    /// counts), printed beside it.
    pub detail: BTreeMap<&'static str, String>,
    /// Free-form report lines printed before the metrics.
    pub lines: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// Whether every checked answer matched the oracle.
    pub correct: bool,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn set_with(&mut self, name: &'static str, value: f64, detail: String) {
        self.values.insert(name, value);
        self.detail.insert(name, detail);
    }
}

/// Print the report: detail lines, one line per declared metric of the
/// mode, then the one-line JSON result. A per-layer metric the workload
/// does not exercise prints as "not exercised" and carries 0 in the JSON
/// line, whose values must all be numbers.
pub fn print(workload: &str, trace: bool, out: &Outcome) {
    for l in &out.lines {
        println!("{l}");
    }
    let declared: Vec<(&str, &str, bool)> = if trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.workloads.contains(&workload)))
            .collect()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n, u, true)).collect()
    };
    let mut json = Vec::new();
    for (name, unit, exercised) in declared {
        let value = out.values.get(name).copied().filter(|_| exercised);
        match value {
            Some(v) => {
                let detail = out.detail.get(name).map_or("", String::as_str);
                println!("  {name:<36} {v:>14.4} {unit:<9} {detail}");
            }
            None => println!("  {name:<36} {:>14} {unit:<9}", "not exercised"),
        }
        let v = value.filter(|v| v.is_finite()).unwrap_or(0.0);
        json.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  {:<36} {failed_frac:>14.4} {:<9} ({} of {} operations)",
        "failed_frac", "frac", out.failed, out.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        json.join(", ")
    );
}
