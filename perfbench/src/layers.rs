//! Calls into the engine, timed from outside, and the per-layer metrics
//! derived from them.
//!
//! Untraced, a query is one `Engine::sql` call between two clock reads.
//! Traced, it runs under a fresh `ProfileScope` inside a `core.sql` span;
//! the engine's `QueryProfile` phases become its child spans, and its
//! `QueryStats::work` counter deltas are summed.

use std::collections::BTreeMap;
use std::time::Instant;

use nodb::types::profile::ProfileSink;
use nodb::{Engine, ProfileScope, QueryOutput, Result};

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{self_time_by_name, self_times, Tracer};

/// Run one query; returns its output and latency in milliseconds.
pub fn timed_sql(engine: &Engine, text: &str) -> (Result<QueryOutput>, f64) {
    let t = Instant::now();
    let out = engine.sql(text);
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Spans and counts of a traced run.
pub struct LayerTrace {
    pub tracer: Tracer,
    /// Queries run through [`LayerTrace::sql`].
    pub queries: u64,
    /// Sum of every query's work-counter deltas, by counter name.
    pub work: BTreeMap<&'static str, u64>,
    /// Morsels and steals from the query profiles.
    pub morsels: u64,
    pub steals: u64,
    /// Queries that made no trip to a raw file.
    pub zero_trip_queries: u64,
    /// Largest store plus positional-map footprint seen.
    pub store_peak_bytes: u64,
    next_request: u64,
}

impl LayerTrace {
    pub fn new(origin: Instant) -> LayerTrace {
        LayerTrace::with_request_base(origin, 0)
    }

    /// A tracer for one of several threads: its request ids start after
    /// `base`, so ids stay unique once the tracers are merged.
    pub fn with_request_base(origin: Instant, base: u64) -> LayerTrace {
        LayerTrace {
            tracer: Tracer::new(origin),
            queries: 0,
            work: BTreeMap::new(),
            morsels: 0,
            steals: 0,
            zero_trip_queries: 0,
            store_peak_bytes: 0,
            next_request: base,
        }
    }

    /// Merge another thread's spans and counts into this one.
    pub fn absorb(&mut self, other: LayerTrace) {
        self.tracer.absorb(other.tracer);
        self.queries += other.queries;
        for (name, v) in other.work {
            *self.work.entry(name).or_insert(0) += v;
        }
        self.morsels += other.morsels;
        self.steals += other.steals;
        self.zero_trip_queries += other.zero_trip_queries;
        self.store_peak_bytes = self.store_peak_bytes.max(other.store_peak_bytes);
    }

    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Run one query under a profile scope and record its spans; returns
    /// its output and latency in milliseconds.
    pub fn sql(&mut self, engine: &Engine, text: &str) -> (Result<QueryOutput>, f64) {
        let request = self.request();
        let start = self.tracer.now_ns();
        let out = {
            let _scope = ProfileScope::enter(ProfileSink::handle());
            engine.sql(text)
        };
        let end = self.tracer.now_ns();
        let span = self.tracer.record("core.sql", None, request, start, end);
        self.queries += 1;
        if let Ok(o) = &out {
            self.tracer.record_profile(span, &o.stats.profile);
            self.morsels += o.stats.profile.morsels;
            self.steals += o.stats.profile.steals;
            for (name, v) in o.stats.work.named_fields() {
                *self.work.entry(name).or_insert(0) += v;
            }
            if o.stats.work.file_trips == 0 {
                self.zero_trip_queries += 1;
            }
        }
        (out, (end - start) as f64 / 1e6)
    }

    /// Record the store footprint of `tables`.
    pub fn sample_store(&mut self, engine: &Engine, tables: &[&str]) {
        let bytes: usize = tables
            .iter()
            .filter_map(|t| engine.table_info(t).ok())
            .map(|i| i.store_bytes + i.posmap_bytes)
            .sum();
        self.store_peak_bytes = self.store_peak_bytes.max(bytes as u64);
    }

    /// Time `f` `reps` times, each in its own span; median seconds.
    pub fn timed_reps<T>(
        &mut self,
        name: &str,
        reps: usize,
        mut f: impl FnMut() -> Result<T>,
    ) -> Result<f64> {
        let mut secs = Vec::with_capacity(reps);
        for _ in 0..reps {
            let request = self.request();
            let (out, span) = self.tracer.time(name, None, request, &mut f);
            out?;
            let s = &self.tracer.spans()[span];
            secs.push((s.end_ns - s.start_ns) as f64 / 1e9);
        }
        Ok(median(&secs).unwrap_or(0.0))
    }

    fn work(&self, name: &str) -> f64 {
        self.work.get(name).copied().unwrap_or(0) as f64
    }

    /// Fill the per-layer metrics that come from query spans and counts.
    /// `file_bytes` is the size of the raw files the queries read.
    pub fn fill(&self, out: &mut Outcome, file_bytes: u64) {
        let q = self.queries.max(1) as f64;
        let own = self_time_by_name(self.tracer.spans());
        let ms = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e6;
        let per_query_ms = |name: &str| ms(name) / q;
        out.set("rawcsv.tokenize1_ms", per_query_ms("rawcsv.tokenize1"));
        out.set(
            "rawcsv.file_passes",
            self.work("bytes_read") / file_bytes.max(1) as f64 / q,
        );
        out.set("rawcsv.values_parsed", self.work("values_parsed") / q);
        out.set("rawcsv.file_trips", self.work("file_trips") / q);
        out.set("core.cold_pipeline_ms", per_query_ms("core.cold_pipeline"));
        out.set("core.load_ms", per_query_ms("core.load"));
        let (hits, misses) = (self.work("plan_cache_hits"), self.work("plan_cache_misses"));
        out.set("core.plan_cache_hit_ratio", hits / (hits + misses).max(1.0));
        out.set("store.bytes_peak_mb", self.store_peak_bytes as f64 / 1e6);
        out.set("store.tuples_evicted", self.work("tuples_evicted") / q);
        out.set("store.hit_ratio", self.zero_trip_queries as f64 / q);
        out.set("exec.warm_kernel_ms", per_query_ms("exec.warm_kernel"));
        out.set("exec.group_merge_ms", per_query_ms("exec.group_merge"));
        out.set("exec.join_build_ms", per_query_ms("exec.join_build"));
        out.set("exec.join_probe_ms", per_query_ms("exec.join_probe"));
        out.set("exec.morsels", self.morsels as f64 / q);
        out.set(
            "exec.steal_ratio",
            self.steals as f64 / self.morsels.max(1) as f64,
        );
        out.set("sql.plan_ms", per_query_ms("sql.plan"));
        let spans = self.tracer.spans();
        let query_ms: f64 = spans
            .iter()
            .filter(|s| s.name == "core.sql")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum();
        let load_path: f64 = spans
            .iter()
            .zip(self_times(spans))
            .filter(|(s, _)| s.parent.is_some_and(|p| spans[p].name == "core.sql"))
            .filter(|(s, _)| {
                s.layer() == "rawcsv" || s.name == "core.cold_pipeline" || s.name == "core.load"
            })
            .map(|(_, ns)| ns as f64 / 1e6)
            .sum();
        out.set_with(
            "trace.load_share",
            load_path / query_ms.max(1e-9),
            "(cold pipeline + load + tokenizer self time) / query time".to_owned(),
        );
    }
}

/// `sql.parse_us`: median microseconds of `nodb::sql::parse` over the
/// workload's distinct query texts.
pub fn parse_us(trace: &mut LayerTrace, texts: &[String]) -> Result<f64> {
    let mut us = Vec::with_capacity(texts.len());
    for text in texts {
        let s = trace.timed_reps("sql.parse", 5, || nodb::sql::parse(text))?;
        us.push(s * 1e6);
    }
    Ok(median(&us).unwrap_or(0.0))
}

/// Fraction of untraced throughput lost with tracing on.
pub fn overhead_frac(untraced_qps: f64, traced_qps: f64) -> f64 {
    (untraced_qps - traced_qps) / untraced_qps.max(1e-9)
}

/// Set `core.mem_reserved_peak_mb`. The engine meters query memory only
/// when `query_mem_bytes` or `engine_mem_bytes` is configured; the
/// workloads run the defaults, so the peak reads 0 until that changes.
pub fn set_mem_peak(out: &mut Outcome, bytes: u64) {
    let note = if bytes == 0 {
        "metering is off in the default config"
    } else {
        ""
    };
    out.set_with(
        "core.mem_reserved_peak_mb",
        bytes as f64 / 1e6,
        note.to_owned(),
    );
}
